package verify

// ROADMAP items 1(c) and 1(d): the data-plane facts a compressed answer
// serves, compared with the concrete answer's router by router on every
// provenance an abstraction can have, and each fact shown to fire on a
// hand-broken abstraction. The two ClassAnswers compared are the reach
// memo's two entries for a class, which Engine.Reach and ReachConcrete read.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

// factsDiffer names the facts in which the compressed answer a fails to
// account for the concrete answer c of one router. A router whose group has
// one copy must get equal facts; with several copies a folds them all, so c
// must lie inside a: what c has a has, and a's path lengths enclose c's.
func factsDiffer(c, a RouterFacts, copies int) []string {
	exact := copies == 1
	var bad []string
	flag := func(name string, conc, comp bool) {
		if conc != comp && (exact || conc) {
			bad = append(bad, name)
		}
	}
	flag("reachable", c.Every, a.Every)
	flag("reachable_some", c.Reaches, a.Reaches)
	flag("loop", c.Loop, a.Loop)
	flag("black_hole", c.BlackHole, a.BlackHole)
	flag("multipath_inconsistent", c.Inconsistent, a.Inconsistent)
	switch {
	case exact:
		if c.MinHops != a.MinHops {
			bad = append(bad, "min_hops")
		}
		if c.MaxHops != a.MaxHops {
			bad = append(bad, "max_hops")
		}
	case c.Reaches:
		if a.MinHops > c.MinHops {
			bad = append(bad, "min_hops")
		}
		if a.MaxHops >= 0 && (c.MaxHops < 0 || a.MaxHops < c.MaxHops) {
			bad = append(bad, "max_hops")
		}
	}
	return bad
}

// compareFacts analyses cls on abs and on the concrete network and returns
// one line per router and fact the comparison fails, and how many routers
// it compared with one copy and with several.
func compareFacts(t *testing.T, b *build.Builder, cls ec.Class, abs *core.Abstraction) (bad []string, single, multi int) {
	t.Helper()
	answer := func(abs *core.Abstraction) ClassAnswer {
		s, err := analyse(b, cls, abs)
		if err != nil {
			t.Fatalf("class %v: %v", cls.Prefix, err)
		}
		return s.ClassAnswer
	}
	comp, conc := answer(abs), answer(nil)
	for u := range b.G.NumNodes() {
		copies := len(abs.Copies[abs.F[u]])
		if copies == 1 {
			single++
		} else {
			multi++
		}
		c, a := conc.Router(topo.NodeID(u)), comp.Router(topo.NodeID(u))
		for _, f := range factsDiffer(c, a, copies) {
			bad = append(bad, fmt.Sprintf("class %v: %s: %s: concrete %+v, compressed %+v (%d copies)",
				cls.Prefix, b.G.Name(topo.NodeID(u)), f, c, a, copies))
		}
	}
	return bad, single, multi
}

// TestFactsMatchConcreteOnEveryProvenance (item 1(c)): on the networks of
// internal/build's provenance cells, and on three with case-split groups,
// every class's compressed facts account for its concrete ones at every
// router. Each provenance must occur: fresh, transported, identity hit,
// colour-split, adopted across a link down and a link up, and recompressed
// after eviction.
func TestFactsMatchConcreteOnEveryProvenance(t *testing.T) {
	ctx := context.Background()
	fattree := netgen.Fattree(6, netgen.PolicyShortestPath)
	fattreeDown := fattree.Clone()
	for i, l := range fattreeDown.Links {
		if strings.HasPrefix(l.A, "core-") || strings.HasPrefix(l.B, "core-") {
			fattreeDown.Links[i].Down = true
			break
		}
	}
	dc := netgen.Datacenter(netgen.DCOptions{
		Clusters: 2, SpinesPerClus: 2, LeavesPerClus: 3, Cores: 2, Borders: 1,
		PrefixesPerLeaf: 2, VirtualIfaces: 2, StaticPatterns: 3, TagGroups: 3,
	})
	dcDown := dc.Clone()
	dcDown.Links[dcDown.FindLink("spine-0-1", "core-01")].Down = true

	counts := map[string]int{}
	check := func(name string, b *build.Builder) {
		comp := b.NewCompiler(true)
		defer comp.Close()
		for _, cls := range b.Classes() {
			abs, prov, err := b.CompressTagged(ctx, comp, cls)
			if err != nil {
				t.Fatalf("%s: class %v: %v", name, cls.Prefix, err)
			}
			counts[prov.String()]++
			if abs.ColorSplits > 0 {
				counts["colour-split"]++
			}
			bad, single, multi := compareFacts(t, b, cls, abs)
			counts["single-copy routers"] += single
			counts["multi-copy routers"] += multi
			for _, line := range bad {
				t.Errorf("%s: %s", name, line)
			}
		}
	}
	adopted := func(name string, from, to *config.Network) {
		old := mustBuilder(t, from)
		check(name+" (predecessor)", old)
		b := mustBuilder(t, to)
		comp := b.NewCompiler(true)
		st, err := b.AdoptFrom(ctx, comp, old, build.AdoptDelta{})
		comp.Close()
		if err != nil {
			t.Fatal(err)
		}
		counts["adopted"] += st.Adopted
		check(name, b)
	}

	adopted("fattree-6 link down", fattree, fattreeDown)
	adopted("fattree-6 link up", fattreeDown, fattree)
	adopted("datacenter link down", dc, dcDown)
	check("ring-13", mustBuilder(t, netgen.Ring(13)))
	evicted := mustBuilder(t, fattree)
	check("fattree-6", evicted)
	evicted.SetAbstractionBudget(evicted.AbstractionCacheStats().LiveBytes / 2)
	counts["evicted"] += int(evicted.AbstractionCacheStats().Evictions)
	evicted.SetAbstractionBudget(0)
	check("fattree-6 after eviction", evicted)
	check("fattree-4 prefer-bottom", mustBuilder(t, netgen.Fattree(4, netgen.PolicyPreferBottom)))
	for _, g := range []string{"figure2", "disagree"} {
		check(g, mustBuilder(t, regress(t, g)))
	}
	for _, k := range []string{"fresh", "transported", "cache", "colour-split", "adopted", "evicted", "multi-copy routers"} {
		if counts[k] == 0 {
			t.Errorf("no %s case: a cell this test fills is empty", k)
		}
	}
	t.Logf("compared: %v", counts)
}

// brokenFacts compresses the class of prefix on cfg, merges the named
// routers into one group by hand, and returns the facts the comparison
// finds wrong, each once.
func brokenFacts(t *testing.T, cfg, prefix string, merge ...string) []string {
	t.Helper()
	net, err := config.ParseString(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := mustBuilder(t, net)
	cls, err := b.ClassFor(prefix)
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	defer comp.Close()
	abs, err := b.Compress(context.Background(), comp, cls)
	if err != nil {
		t.Fatal(err)
	}
	if bad, _, _ := compareFacts(t, b, cls, abs); len(bad) > 0 {
		t.Fatalf("test premise broken: the correct abstraction fails: %v", bad)
	}
	groupOf := append([]int(nil), abs.F...)
	first := b.G.MustLookup(merge[0])
	for _, name := range merge[1:] {
		u := b.G.MustLookup(name)
		if abs.F[u] == abs.F[first] {
			t.Fatalf("test premise broken: %s and %s already share a group", merge[0], name)
		}
		groupOf[u] = groupOf[first]
	}
	live := topo.NewEdgeSet(b.G.NumEdges())
	for i := range b.G.NumEdges() {
		live.Set(i)
	}
	broken := core.Assemble(b.G, abs.Dest, groupOf, core.AssembleOptions{Mode: core.ModeEffective, LiveEdges: live})
	bad, _, _ := compareFacts(t, b, cls, broken)
	seen := map[string]bool{}
	var facts []string
	for _, line := range bad {
		f := strings.Split(line, ": ")[2]
		if !seen[f] {
			seen[f] = true
			facts = append(facts, f)
		}
	}
	t.Logf("merging %v breaks %v", merge, facts)
	return facts
}

// wantFact fails unless the comparison named fact among what it found.
func wantFact(t *testing.T, found []string, fact string) {
	t.Helper()
	for _, f := range found {
		if f == fact {
			return
		}
	}
	t.Fatalf("a hand-broken abstraction that changes %s passed; the comparison found only %v", fact, found)
}

// chain is d - a - b - c under BGP: c is three hops from d.
const chain = `
router d
  bgp as 65000
  neighbor a
  originate 10.0.0.0/24
router a
  bgp as 65001
  neighbor d
  neighbor b
router b
  bgp as 65002
  neighbor a
  neighbor c
router c
  bgp as 65003
  neighbor b
link d a
link a b
link b c
`

// TestDetectsBrokenPathLength: merging b and c puts c two hops from d.
func TestDetectsBrokenPathLength(t *testing.T) {
	found := brokenFacts(t, chain, "10.0.0.0/24", "b", "c")
	wantFact(t, found, "min_hops")
	wantFact(t, found, "max_hops")
}

// staticLoop has a and b route the class to each other by static routes, so
// their traffic loops, while BGP would take b straight to d.
const staticLoop = `
router d
  bgp as 65000
  neighbor b
  originate 10.0.0.0/24
router a
  bgp as 65001
  neighbor b
  static 10.0.0.0/24 via b
router b
  bgp as 65002
  neighbor a
  neighbor d
  static 10.0.0.0/24 via a
link d b
link a b
`

// TestDetectsBrokenLoop: merged, a and b have no edge between them left to
// carry their static routes, so the abstract group reaches d by BGP and the
// loop is gone.
func TestDetectsBrokenLoop(t *testing.T) {
	wantFact(t, brokenFacts(t, staticLoop, "10.0.0.0/24", "a", "b"), "loop")
}

// halfBlocked has a forward over m1 and m2 alike, and m2's interface toward
// d drop the class's traffic: m2 is a black hole and a is inconsistent.
const halfBlocked = `
router d
  bgp as 65000
  neighbor m1
  neighbor m2
  originate 10.0.0.0/24
router m1
  bgp as 65001
  neighbor d
  neighbor a
router m2
  bgp as 65001
  neighbor d
  neighbor a
  acl BLOCK deny 10.0.0.0/24
  acl BLOCK permit 0.0.0.0/0 le 32
  iface-acl d BLOCK
router a
  bgp as 65002
  neighbor m1
  neighbor m2
link d m1
link d m2
link m1 a
link m2 a
`

// TestDetectsBrokenBlackHole: merged with m1, m2 forwards over m1's
// permitted edge.
func TestDetectsBrokenBlackHole(t *testing.T) {
	wantFact(t, brokenFacts(t, halfBlocked, "10.0.0.0/24", "m1", "m2"), "black_hole")
}

// TestDetectsBrokenMultipathConsistency: with m1 and m2 merged, both of a's
// paths deliver.
func TestDetectsBrokenMultipathConsistency(t *testing.T) {
	wantFact(t, brokenFacts(t, halfBlocked, "10.0.0.0/24", "m1", "m2"), "multipath_inconsistent")
}
