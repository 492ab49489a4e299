package bonsai

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

// batchNet builds a bare four-router line a--b--c--d with one link
// administratively down (c--d) and one originated prefix on d. A batch
// reads only topology, namespaces and origination, so no BGP configuration
// is needed.
func batchNet() *config.Network {
	n := config.New("batch-test")
	for _, name := range []string{"a", "b", "c", "d"} {
		n.AddRouter(name)
	}
	n.Links = []config.Link{
		{A: "a", B: "b"},
		{A: "b", B: "c"},
		{A: "c", B: "d", Down: true},
	}
	n.Routers["d"].Originate = []netip.Prefix{netip.MustParsePrefix("10.0.4.0/24")}
	return n
}

// openFattree4 opens an engine over a shortest-path Fattree(4), closed when
// the test ends.
func openFattree4(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// openBatch adds ds in order to a batch of a fresh engine over batchNet,
// failing on a refused delta, and returns the batch unsettled.
func openBatch(t *testing.T, ds ...Delta) *batch {
	t.Helper()
	eng, err := Open(batchNet())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	bt := newBatch(eng.state.Load())
	for _, d := range ds {
		if err := bt.add(&d); err != nil {
			t.Fatalf("add %+v: %v", d, err)
		}
	}
	return bt
}

func TestCoalesceFlapCancels(t *testing.T) {
	bt := openBatch(t,
		Delta{LinkDown: []LinkRef{{A: "a", B: "b"}}},
		Delta{LinkUp: []LinkRef{{A: "b", B: "a"}}},
	)
	if links, routers := bt.settle(); links != 0 || routers != nil || bt.edits != 2 {
		t.Fatalf("net change %d links, routers %v of %d edits; want a flap to cancel", links, routers, bt.edits)
	}
}

func TestCoalesceDownFlapCancels(t *testing.T) {
	// c--d starts administratively down: up-then-down returns to base.
	bt := openBatch(t,
		Delta{LinkUp: []LinkRef{{A: "c", B: "d"}}},
		Delta{LinkDown: []LinkRef{{A: "d", B: "c"}}},
	)
	if links, _ := bt.settle(); links != 0 {
		t.Fatalf("up-then-down on a down link changed %d links", links)
	}
	// One delta takes its links down before it brings links up, so the
	// same two edits in one delta leave c--d up.
	bt = openBatch(t, Delta{
		LinkUp:   []LinkRef{{A: "c", B: "d"}},
		LinkDown: []LinkRef{{A: "d", B: "c"}},
	})
	if links, _ := bt.settle(); links != 1 || bt.cfg.Links[2].Down {
		t.Fatalf("down-then-up in one delta: %d links changed, %+v", links, bt.cfg.Links[2])
	}
}

func TestCoalesceLinkFinalStateWins(t *testing.T) {
	var ds []Delta
	for range 5 {
		ds = append(ds, Delta{LinkDown: []LinkRef{{A: "a", B: "b"}}}, Delta{LinkUp: []LinkRef{{A: "a", B: "b"}}})
	}
	bt := openBatch(t, append(ds, Delta{LinkDown: []LinkRef{{A: "a", B: "b"}}})...)
	if links, _ := bt.settle(); links != 1 || !bt.cfg.Links[0].Down || bt.edits != 11 {
		t.Fatalf("net change %d links of %d edits, a--b %+v; want the last LinkDown", links, bt.edits, bt.cfg.Links[0])
	}
}

// TestBatchKeepsCreatedThenDownedLink: a link a batch creates and then
// takes down stays a down link record, as it does when each delta is
// applied on its own: the configuration is the deltas' in order, whatever
// the batch.
func TestBatchKeepsCreatedThenDownedLink(t *testing.T) {
	ds := []Delta{
		{LinkUp: []LinkRef{{A: "a", B: "d"}}},
		// The creation is in the fork, so the next delta's Validate sees it.
		{LinkDown: []LinkRef{{A: "a", B: "d"}}},
	}
	bt := openBatch(t, ds...)
	if links, _ := bt.settle(); links != 1 || bt.cfg.Links[3] != (config.Link{A: "a", B: "d", Down: true}) {
		t.Fatalf("net change %d links, %+v; want a down a--d record", links, bt.cfg.Links)
	}
	eng, err := Open(batchNet())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, d := range ds {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := config.PrintString(bt.cfg), config.PrintString(eng.Network()); got != want {
		t.Fatalf("batch:\n%s\nper-delta Apply:\n%s", got, want)
	}
}

func TestCoalesceLastWriterWinsPolicy(t *testing.T) {
	rm1 := &RouteMap{Name: "rm"}
	rm2 := &RouteMap{Name: "rm", Clauses: []Clause{{Action: Deny}}}
	bt := openBatch(t,
		Delta{SetRouteMaps: []RouteMapEdit{{Router: "a", Name: "rm-x", Map: rm1}}},
		Delta{SetRouteMaps: []RouteMapEdit{{Router: "a", Name: "rm-x", Map: rm2}}},
		Delta{SetPrefixLists: []PrefixListEdit{
			{Router: "b", Name: "pl-1", List: &PrefixList{}},
			{Router: "b", Name: "pl-1", List: nil}, // delete wins within one delta too
		}},
	)
	links, routers := bt.settle()
	if links != 0 || !slices.Equal(routers, []string{"a", "b"}) || bt.edits != 4 {
		t.Fatalf("net change %d links, routers %v of %d edits; want a and b", links, routers, bt.edits)
	}
	if got := bt.cfg.Routers["a"].Env.RouteMaps["rm-x"]; got == nil || len(got.Clauses) != 1 || got.Name != "rm-x" {
		t.Fatalf("route map rm-x = %+v, want the last writer's", got)
	}
	if _, ok := bt.cfg.Routers["b"].Env.PrefixLists["pl-1"]; ok {
		t.Fatal("prefix list pl-1 survived its delete")
	}
}

func TestCoalesceOriginCancelsAgainstBase(t *testing.T) {
	bt := openBatch(t,
		// d already originates 10.0.4.0/24: remove then add cancels.
		Delta{RemoveOriginated: []OriginEdit{{Router: "d", Prefix: "10.0.4.0/24"}}},
		Delta{AddOriginated: []OriginEdit{{Router: "d", Prefix: "10.0.4.0/24"}}},
		// a does not originate 10.9.0.0/16: add then remove cancels.
		Delta{AddOriginated: []OriginEdit{{Router: "a", Prefix: "10.9.0.0/16"}}},
		Delta{RemoveOriginated: []OriginEdit{{Router: "a", Prefix: "10.9.0.0/16"}}},
		// b gains a genuinely new origin.
		Delta{AddOriginated: []OriginEdit{{Router: "b", Prefix: "10.8.0.0/16"}}},
	)
	links, routers := bt.settle()
	if links != 0 || !slices.Equal(routers, []string{"b"}) || bt.edits != 5 {
		t.Fatalf("net change %d links, routers %v of %d edits; want b alone", links, routers, bt.edits)
	}
	for _, name := range []string{"a", "c", "d"} {
		if bt.cfg.Routers[name] != bt.base.Routers[name] {
			t.Fatalf("router %s ended as the base has it but kept a copy", name)
		}
	}
}

// TestBatchRefusesADeltaAlone: a delta a batch refuses leaves the fork as
// it was, and the deltas around it stand. ApplyAll refuses, on its own,
// what Apply refuses and ends at the configuration per-delta Apply reaches.
func TestBatchRefusesADeltaAlone(t *testing.T) {
	bt := openBatch(t)
	bad := Delta{
		AddOriginated: []OriginEdit{{Router: "a", Prefix: "10.1.0.0/16"}},
		LinkDown:      []LinkRef{{A: "a", B: "zz"}},
	}
	if err := bt.add(&bad); err == nil {
		t.Fatal("want error for unknown link")
	}
	if bt.cfg != nil || bt.edits != 0 {
		t.Fatalf("a refused delta forked the configuration (%d edits)", bt.edits)
	}

	ctx := context.Background()
	log := []Delta{
		{LinkDown: []LinkRef{{A: "agg-0-0", B: "core-0"}}},
		{SetRouteMaps: []RouteMapEdit{{Router: "edge-0-0", Name: "EXPORT-OWN"}}}, // a session names it
		{AddOriginated: []OriginEdit{{Router: "edge-1-0", Prefix: "10.99.0.0/24"}}},
	}
	all := openFattree4(t)
	rep, err := all.ApplyAll(ctx, log)
	if err != nil || rep.Rejected != 1 || rep.EditsApplied != 2 {
		t.Fatalf("ApplyAll: %+v, %v; want the route-map delete alone rejected", rep, err)
	}
	each := openFattree4(t)
	for i, d := range log {
		if _, err := each.Apply(ctx, d); (err != nil) != (i == 1) || (err != nil && !errors.Is(err, ErrInvalidDelta)) {
			t.Fatalf("Apply of delta %d: %v", i, err)
		}
	}
	if got, want := config.PrintString(all.Network()), config.PrintString(each.Network()); got != want {
		t.Fatalf("ApplyAll:\n%s\nper-delta Apply:\n%s", got, want)
	}
}

// TestConfigIsHistoryIndependent: the configuration is a function of the
// deltas accepted, however they arrived. Over seeded logs on Fattree(4) —
// link flaps, origins added and removed, links created and later taken
// down, and now and then a delta that leaves an invalid network —
// ApplyAll, ApplyStream cut every few deltas and per-delta Apply must print
// the same configuration.
func TestConfigIsHistoryIndependent(t *testing.T) {
	ctx := context.Background()
	base := netgen.Fattree(4, netgen.PolicyShortestPath)
	routers := base.RouterNames()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log []Delta
		var created []LinkRef
		prefixes := []string{"10.200.0.0/24", "10.201.0.0/24"}
		for range 31 {
			var d Delta
			switch r := rng.Intn(10); {
			case r < 4:
				l := base.Links[rng.Intn(len(base.Links))]
				ref := []LinkRef{{A: l.A, B: l.B}}
				if rng.Intn(2) == 0 {
					d.LinkDown = ref
				} else {
					d.LinkUp = ref
				}
			case r < 7:
				e := []OriginEdit{{Router: routers[rng.Intn(len(routers))], Prefix: prefixes[rng.Intn(len(prefixes))]}}
				if rng.Intn(2) == 0 {
					d.AddOriginated = e
				} else {
					d.RemoveOriginated = e
				}
			case r < 8:
				a, b := routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))]
				if a == b {
					continue
				}
				created = append(created, LinkRef{A: a, B: b})
				d.LinkUp = created[len(created)-1:]
			case r < 9 && len(created) > 0:
				d.LinkDown = []LinkRef{created[rng.Intn(len(created))]}
			default:
				d.SetRouteMaps = []RouteMapEdit{{Router: fmt.Sprintf("edge-%d-0", rng.Intn(4)), Name: "EXPORT-OWN"}}
			}
			log = append(log, d)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			each := openFattree4(t)
			for _, d := range log {
				if _, err := each.Apply(ctx, d); err != nil && !errors.Is(err, ErrInvalidDelta) {
					t.Fatal(err)
				}
			}
			want := config.PrintString(each.Network())

			all := openFattree4(t)
			if _, err := all.ApplyAll(ctx, log); err != nil {
				t.Fatal(err)
			}
			streamed := openFattree4(t)
			ch := make(chan Delta)
			go func() {
				defer close(ch)
				for _, d := range log {
					ch <- d
				}
			}()
			if _, err := streamed.ApplyStream(ctx, ch, WithMaxPending(1+int(seed)%5)); err != nil {
				t.Fatal(err)
			}
			for way, eng := range map[string]*Engine{"ApplyAll": all, "ApplyStream": streamed} {
				if got := config.PrintString(eng.Network()); got != want {
					t.Errorf("%s:\n%s\nper-delta Apply:\n%s", way, got, want)
				}
			}
		})
	}
}

func TestDeltaValidateDoesNotMutate(t *testing.T) {
	n := batchNet()
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

// TestDeltaApplyAtomicOnValidationFailure: a delta is validated whole
// before any edit, so all-or-nothing is a property of Engine.Apply: a delta
// whose first edit is valid and whose last is not leaves the served
// configuration byte-identical.
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
