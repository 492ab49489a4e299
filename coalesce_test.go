package bonsai

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

// coalesceNet builds a bare four-router line a--b--c--d with one link
// administratively down (c--d) and one originated prefix on d. The
// coalescer only consults topology and origination, so no policy or BGP
// configuration is needed.
func coalesceNet() *config.Network {
	n := &config.Network{
		Name:    "coalesce-test",
		Routers: make(map[string]*config.Router),
		Links: []config.Link{
			{A: "a", B: "b"},
			{A: "b", B: "c"},
			{A: "c", B: "d", Down: true},
		},
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		n.Routers[name] = &config.Router{Name: name}
	}
	n.Routers["d"].Originate = []netip.Prefix{netip.MustParsePrefix("10.0.4.0/24")}
	return n
}

func TestCoalesceFlapCancels(t *testing.T) {
	c := newCoalescer(coalesceNet())
	if err := c.add(Delta{LinkDown: []LinkRef{{A: "a", B: "b"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.add(Delta{LinkUp: []LinkRef{{A: "b", B: "a"}}}); err != nil {
		t.Fatal(err)
	}
	d, st := c.build()
	if !d.empty() {
		t.Fatalf("flap should cancel to an empty delta, got %+v", d)
	}
	if st.EditsIn != 2 || st.EditsOut != 0 || st.Coalesced != 2 {
		t.Fatalf("stats = %+v, want 2 in / 0 out / 2 coalesced", st)
	}
}

func TestCoalesceDownFlapCancels(t *testing.T) {
	// c--d starts administratively down: up-then-down returns to base.
	c := newCoalescer(coalesceNet())
	if err := c.add(Delta{
		LinkUp:   []LinkRef{{A: "c", B: "d"}},
		LinkDown: []LinkRef{{A: "d", B: "c"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Delta.apply processes LinkDown before LinkUp, so fold order within
	// one delta is down-then-up; issue the edits as two deltas to get the
	// up-then-down order under test.
	c2 := newCoalescer(coalesceNet())
	if err := c2.add(Delta{LinkUp: []LinkRef{{A: "c", B: "d"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c2.add(Delta{LinkDown: []LinkRef{{A: "c", B: "d"}}}); err != nil {
		t.Fatal(err)
	}
	if d, _ := c2.build(); !d.empty() {
		t.Fatalf("up-then-down on a down link should cancel, got %+v", d)
	}
}

func TestCoalesceLinkFinalStateWins(t *testing.T) {
	c := newCoalescer(coalesceNet())
	for i := 0; i < 5; i++ {
		if err := c.add(Delta{LinkDown: []LinkRef{{A: "a", B: "b"}}}); err != nil {
			t.Fatal(err)
		}
		if err := c.add(Delta{LinkUp: []LinkRef{{A: "a", B: "b"}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.add(Delta{LinkDown: []LinkRef{{A: "a", B: "b"}}}); err != nil {
		t.Fatal(err)
	}
	d, st := c.build()
	if len(d.LinkDown) != 1 || len(d.LinkUp) != 0 {
		t.Fatalf("want single LinkDown, got %+v", d)
	}
	if st.EditsIn != 11 || st.EditsOut != 1 || st.Coalesced != 10 {
		t.Fatalf("stats = %+v, want 11 in / 1 out / 10 coalesced", st)
	}
}

func TestCoalesceCreatedThenDownedLinkVanishes(t *testing.T) {
	c := newCoalescer(coalesceNet())
	if err := c.add(Delta{LinkUp: []LinkRef{{A: "a", B: "d"}}}); err != nil {
		t.Fatal(err)
	}
	// The pending creation must be visible to later deltas' validation.
	if err := c.add(Delta{LinkDown: []LinkRef{{A: "a", B: "d"}}}); err != nil {
		t.Fatalf("LinkDown of pending-created link rejected: %v", err)
	}
	if d, _ := c.build(); !d.empty() {
		t.Fatalf("created-then-downed link should vanish (down = topologically absent), got %+v", d)
	}
}

func TestCoalesceLastWriterWinsPolicy(t *testing.T) {
	c := newCoalescer(coalesceNet())
	rm1 := &RouteMap{Name: "rm"}
	rm2 := &RouteMap{Name: "rm", Clauses: []Clause{{Action: Deny}}}
	if err := c.add(Delta{SetRouteMaps: []RouteMapEdit{{Router: "a", Name: "rm-x", Map: rm1}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.add(Delta{SetRouteMaps: []RouteMapEdit{{Router: "a", Name: "rm-x", Map: rm2}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.add(Delta{SetPrefixLists: []PrefixListEdit{
		{Router: "b", Name: "pl-1", List: &PrefixList{}},
		{Router: "b", Name: "pl-1", List: nil}, // delete wins within one delta too
	}}); err != nil {
		t.Fatal(err)
	}
	d, st := c.build()
	if len(d.SetRouteMaps) != 1 || d.SetRouteMaps[0].Map != rm2 {
		t.Fatalf("route-map LWW failed: %+v", d.SetRouteMaps)
	}
	if len(d.SetPrefixLists) != 1 || d.SetPrefixLists[0].List != nil {
		t.Fatalf("prefix-list LWW failed: %+v", d.SetPrefixLists)
	}
	if st.Coalesced != 2 {
		t.Fatalf("want 2 coalesced-away policy edits, got %+v", st)
	}
	joined := strings.Join(st.CoalescedAway, ",")
	if !strings.Contains(joined, "set_route_map a/rm-x") || !strings.Contains(joined, "set_prefix_list b/pl-1") {
		t.Fatalf("coalesced-away list missing superseded edits: %q", joined)
	}
}

func TestCoalesceOriginCancelsAgainstBase(t *testing.T) {
	c := newCoalescer(coalesceNet())
	// d already originates 10.0.4.0/24: remove then add cancels.
	if err := c.add(Delta{RemoveOriginated: []OriginEdit{{Router: "d", Prefix: "10.0.4.0/24"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.add(Delta{AddOriginated: []OriginEdit{{Router: "d", Prefix: "10.0.4.0/24"}}}); err != nil {
		t.Fatal(err)
	}
	// a does not originate 10.9.0.0/16: add then remove cancels.
	if err := c.add(Delta{AddOriginated: []OriginEdit{{Router: "a", Prefix: "10.9.0.0/16"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.add(Delta{RemoveOriginated: []OriginEdit{{Router: "a", Prefix: "10.9.0.0/16"}}}); err != nil {
		t.Fatal(err)
	}
	// b gains a genuinely new origin.
	if err := c.add(Delta{AddOriginated: []OriginEdit{{Router: "b", Prefix: "10.8.0.0/16"}}}); err != nil {
		t.Fatal(err)
	}
	d, st := c.build()
	if len(d.AddOriginated) != 1 || d.AddOriginated[0].Router != "b" {
		t.Fatalf("want single surviving origin add for b, got %+v", d)
	}
	if len(d.RemoveOriginated) != 0 {
		t.Fatalf("origin removes should have cancelled, got %+v", d.RemoveOriginated)
	}
	if st.EditsIn != 5 || st.EditsOut != 1 || st.Coalesced != 4 {
		t.Fatalf("stats = %+v, want 5 in / 1 out / 4 coalesced", st)
	}
}

func TestCoalesceRejectsInvalidDeltaWhole(t *testing.T) {
	c := newCoalescer(coalesceNet())
	bad := Delta{
		AddOriginated: []OriginEdit{{Router: "a", Prefix: "10.1.0.0/16"}},
		LinkDown:      []LinkRef{{A: "a", B: "zz"}},
	}
	if err := c.add(bad); err == nil {
		t.Fatal("want error for unknown link")
	}
	if d, st := c.build(); !d.empty() || st.EditsIn != 0 {
		t.Fatalf("rejected delta must not fold any edits, got %+v %+v", d, st)
	}
}

func TestCoalesceCoalescedAwayListCapped(t *testing.T) {
	c := newCoalescer(coalesceNet())
	for i := 0; i < maxCoalescedAwayListed+40; i++ {
		down := i%2 == 0
		var d Delta
		if down {
			d.LinkDown = []LinkRef{{A: "a", B: "b"}}
		} else {
			d.LinkUp = []LinkRef{{A: "a", B: "b"}}
		}
		if err := c.add(d); err != nil {
			t.Fatal(err)
		}
	}
	_, st := c.build()
	if len(st.CoalescedAway) != maxCoalescedAwayListed {
		t.Fatalf("list length = %d, want cap %d", len(st.CoalescedAway), maxCoalescedAwayListed)
	}
	if st.Coalesced <= maxCoalescedAwayListed {
		t.Fatalf("full counter should exceed the cap, got %d", st.Coalesced)
	}
}

func TestDeltaValidateDoesNotMutate(t *testing.T) {
	n := coalesceNet()
	before := fmt.Sprintf("%+v|%+v", n.Links, n.Routers["d"].Originate)
	bad := Delta{
		LinkDown:      []LinkRef{{A: "a", B: "b"}},
		AddOriginated: []OriginEdit{{Router: "a", Prefix: "not-a-prefix"}},
	}
	if err := bad.Validate(n); err == nil {
		t.Fatal("want validation error for bad prefix")
	}
	if got := fmt.Sprintf("%+v|%+v", n.Links, n.Routers["d"].Originate); got != before {
		t.Fatalf("Validate mutated the network:\nbefore %s\nafter  %s", before, got)
	}
}

// TestDeltaApplyAtomicOnValidationFailure: Delta.apply itself does not
// validate (the engine validates once, before the fork), so all-or-nothing is
// a property of Engine.Apply: a delta whose first edit is valid and whose
// last is not leaves the served configuration byte-identical.
func TestDeltaApplyAtomicOnValidationFailure(t *testing.T) {
	eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := config.PrintString(eng.Network())
	bad := Delta{
		LinkDown:         []LinkRef{{A: "agg-0-0", B: "core-0"}},
		RemoveOriginated: []OriginEdit{{Router: "ghost", Prefix: "10.0.4.0/24"}},
	}
	if _, err := eng.Apply(context.Background(), bad); err == nil {
		t.Fatal("want apply error for unknown router")
	}
	if got := config.PrintString(eng.Network()); got != before {
		t.Fatalf("failed apply changed the served network:\nbefore %s\nafter  %s", before, got)
	}
}
