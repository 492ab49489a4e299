package config_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"bonsai/internal/config"
)

// scanLink is the linear reference FindLink replaced: the first record
// joining a and b, in either order.
func scanLink(links []config.Link, a, b string) int {
	return slices.IndexFunc(links, func(l config.Link) bool { return l.A == a && l.B == b || l.A == b && l.B == a })
}

// requireIndexScans fails unless FindLink answers as the scan on every
// ordered pair of names, unknown ones included.
func requireIndexScans(t *testing.T, tag string, n *config.Network, names []string) {
	t.Helper()
	for _, a := range names {
		for _, b := range names {
			if got, want := n.FindLink(a, b), scanLink(n.Links, a, b); got != want {
				t.Fatalf("%s: FindLink(%s, %s) = %d, the scan finds %d in %d records", tag, a, b, got, want, len(n.Links))
			}
		}
	}
}

// TestFindLinkMatchesLinearScan holds the link index to the scan it
// replaced, along seeded edit chains over a pool of networks: each starts
// from Parse of link lines that repeat pairs (first line wins, a later
// "down" marks it), then takes AddLinkN calls, direct appends to Links
// (repeated pairs too), link-ups of new pairs the way a delta makes them
// (FindLink, then AddLink), records cut from a clone of Links, down flags,
// and forks, after which the fork or its predecessor appends. Every network
// in the pool must answer as the scan of its own records after every step.
func TestFindLinkMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprint("r", i)
	}
	pick := func() string { return names[rng.Intn(len(names)-1)] } // the last name stays unknown
	forks := 0
	for seed := range 20 {
		var text strings.Builder
		var want []config.Link // Parse's records, built by the scan
		for range 12 {
			a, b, down := pick(), pick(), rng.Intn(4) == 0
			fmt.Fprintf(&text, "link %s %s", a, b)
			if down {
				text.WriteString(" down")
			}
			text.WriteString("\n")
			i := scanLink(want, a, b)
			if i < 0 {
				i = len(want)
				want = append(want, config.Link{A: a, B: b, Count: 1})
			}
			want[i].Down = want[i].Down || down
		}
		parsed, err := config.ParseString(text.String())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(parsed.Links, want) {
			t.Fatalf("seed %d: parsed %+v, the scan builds %+v", seed, parsed.Links, want)
		}
		pool := []*config.Network{parsed}
		requireIndexScans(t, fmt.Sprintf("seed %d parsed", seed), parsed, names)
		for step := range 40 {
			n := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(6); {
			case op == 0:
				n.AddLinkN(pick(), pick(), 1+rng.Intn(3))
			case op == 1:
				n.Links = append(n.Links, config.Link{A: pick(), B: pick()})
			case op == 2:
				if a, b := pick(), pick(); n.FindLink(a, b) < 0 {
					n.AddLink(a, b)
				}
			case op == 3 && len(n.Links) > 0:
				i := rng.Intn(len(n.Links))
				n.Links = slices.Delete(slices.Clone(n.Links), i, i+1)
			case op == 4 && len(n.Links) > 0:
				n.Links[rng.Intn(len(n.Links))].Down = rng.Intn(2) == 0
			case op == 5:
				f := n.Fork()
				forks++
				pool = append(pool, f)
				// A link-up of a new pair on one side or the other.
				side := []*config.Network{n, f}[rng.Intn(2)]
				if a, b := pick(), pick(); side.FindLink(a, b) < 0 {
					side.AddLink(a, b)
				}
			}
			for k, m := range pool {
				requireIndexScans(t, fmt.Sprintf("seed %d step %d network %d", seed, step, k), m, names)
			}
		}
	}
	if forks < 50 {
		t.Fatalf("only %d forks", forks)
	}
}

// TestForkNeverWritesItsPredecessorsIndex races a predecessor's appends
// against its fork's: each side adds links and reads both its own and the
// shared records while the other writes. Run under -race it fails if
// either side writes what the other reads unlocked; and each side must
// still answer as the scan of its own records.
func TestForkNeverWritesItsPredecessorsIndex(t *testing.T) {
	base := config.New("base")
	for i := range 50 {
		base.AddLink(fmt.Sprint("a", i), fmt.Sprint("b", i))
	}
	fork := base.Fork()
	var wg sync.WaitGroup
	for side, n := range []*config.Network{base, fork} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				n.AddLink(fmt.Sprint("s", side, "-", i%60), fmt.Sprint("b", i%50))
				if n.FindLink(fmt.Sprint("a", i%50), fmt.Sprint("b", i%50)) != i%50 {
					t.Errorf("side %d: a shared link moved", side)
					return
				}
			}
		}()
	}
	wg.Wait()
	names := []string{"a0", "b0", "a49", "b49", "s0-0", "s1-0", "s0-59", "s1-59", "b7"}
	requireIndexScans(t, "predecessor", base, names)
	requireIndexScans(t, "fork", fork, names)
}
