package oracle

import (
	"context"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

func uniformKey(u, v topo.NodeID) core.EdgeKey {
	return core.EdgeKey{BGP: true, BGPRel: 7, ACLPermit: true}
}

func ringAbs(t *testing.T, n int) (*core.Abstraction, *topo.Graph) {
	t.Helper()
	g := topo.New()
	ids := make([]topo.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(string(rune('a'+i/26)) + string(rune('a'+i%26)))
	}
	for i := range ids {
		g.AddLink(ids[i], ids[(i+1)%n])
	}
	abs := core.FindAbstraction(g, ids[0], core.Options{Mode: core.ModeEffective, EdgeKey: uniformKey})
	return abs, g
}

func TestRingSatisfiesConditions(t *testing.T) {
	abs, g := ringAbs(t, 12)
	c := &Checker{Abs: abs, G: g, EdgeKey: uniformKey}
	if err := c.CheckAll(core.ModeEffective, nil); err != nil {
		t.Fatal(err)
	}
	if internal := c.CheckSelfLoopFreedom(); len(internal) != 0 {
		t.Fatalf("ring groups should never be internally adjacent: %v", internal)
	}
}

func TestGeneratedNetworksSatisfyConditions(t *testing.T) {
	nets := map[string]*config.Network{
		"fattree": netgen.Fattree(4, netgen.PolicyShortestPath),
		"mesh":    netgen.FullMesh(6),
		"dc": netgen.Datacenter(netgen.DCOptions{
			Clusters: 2, SpinesPerClus: 2, LeavesPerClus: 3, Cores: 2, Borders: 1,
			PrefixesPerLeaf: 2, VirtualIfaces: 2, StaticPatterns: 3, TagGroups: 3,
		}),
		"wan": netgen.WAN(netgen.WANOptions{Backbone: 4, Sites: 3, SwitchesPerSite: 2}),
		"spineleaf": netgen.SpineLeaf(netgen.SpineLeafOptions{
			Spines: 2, Leaves: 3, ExtPerLeaf: 2, PrefixesPerExt: 2,
		}),
	}
	for name, net := range nets {
		b, err := build.New(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comp := b.NewCompiler(true)
		for _, cls := range b.Classes() {
			abs, err := b.Compress(context.Background(), comp, cls)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			key := b.EdgeKeyFunc(comp, cls)
			mode := core.ModeEffective
			if b.HasBGP() {
				mode = core.ModeBGP
			}
			c := &Checker{Abs: abs, G: b.G, EdgeKey: key}
			if err := c.CheckAll(mode, b.PrefsFunc(cls)); err != nil {
				t.Fatalf("%s class %v: %v", name, cls.Prefix, err)
			}
		}
	}
}

func TestDetectsBrokenDestEquivalence(t *testing.T) {
	abs, g := ringAbs(t, 8)
	// Sabotage: merge the destination's group record with another member.
	abs.Groups[abs.F[abs.Dest]] = append(abs.Groups[abs.F[abs.Dest]], topo.NodeID(1))
	c := &Checker{Abs: abs, G: g, EdgeKey: uniformKey}
	if err := c.CheckDestEquivalence(); err == nil {
		t.Fatal("corrupted destination group not detected")
	}
}

func TestDetectsBrokenForallExists(t *testing.T) {
	// Merge two groups that have different neighbor structure: a chain
	// d - a - b with {a, b} forced into one group violates ∀∃ (b has no
	// edge to d's group).
	g := topo.New()
	d, a, b := g.AddNode("d"), g.AddNode("a"), g.AddNode("b")
	g.AddLink(d, a)
	g.AddLink(a, b)
	abs := core.FindAbstraction(g, d, core.Options{Mode: core.ModeEffective, EdgeKey: uniformKey})
	// The algorithm correctly separates a and b; force them together.
	if abs.F[a] == abs.F[b] {
		t.Fatal("test premise broken")
	}
	abs.F[b] = abs.F[a]
	abs.Groups = [][]topo.NodeID{{d}, {a, b}}
	abs.F = []int{0, 1, 1}
	abs.Copies = [][]topo.NodeID{{abs.AbsDest}, {abs.AbsDest + 1}}
	c := &Checker{Abs: abs, G: g, EdgeKey: uniformKey}
	if err := c.CheckForallExists(); err == nil {
		t.Fatal("∀∃ violation not detected")
	}
}

func TestDetectsBrokenForallForall(t *testing.T) {
	// Two chains d - y1 - x1 and d - y2 - x2 with {x1, x2} a
	// multi-preference group and {y1, y2} merged: every member reaches some
	// member of the next group, so ∀∃ holds, but x1 has no edge to y2.
	g := topo.New()
	d, x1, x2, y1, y2 := g.AddNode("d"), g.AddNode("x1"), g.AddNode("x2"), g.AddNode("y1"), g.AddNode("y2")
	g.AddLink(d, y1)
	g.AddLink(d, y2)
	g.AddLink(y1, x1)
	g.AddLink(y2, x2)
	live := topo.NewEdgeSet(len(g.Edges()))
	for i := range g.Edges() {
		live.Set(i)
	}
	prefs := func(u topo.NodeID) int {
		if u == x1 || u == x2 {
			return 2
		}
		return 1
	}
	abs := core.Assemble(g, d, []int{0, 1, 1, 2, 2}, core.AssembleOptions{Mode: core.ModeBGP, Prefs: prefs, LiveEdges: live})
	c := &Checker{Abs: abs, G: g, EdgeKey: uniformKey}
	if err := c.CheckForallExists(); err != nil {
		t.Fatalf("test premise broken: %v", err)
	}
	if err := c.CheckForallForall(map[int]bool{abs.F[x1]: true}); err == nil {
		t.Fatal("∀∀ violation not detected")
	}
}

func TestDetectsForallForallGapSharedByTheGroup(t *testing.T) {
	// x1 and x2, a multi-preference group, both learn from y1 and neither
	// from y2, which is merged with y1; y1 and y2 learn from d, and no y
	// learns from an x. ∀∃ holds and the two x miss the same member of the
	// y group, but neither has an edge to y2.
	g := topo.New()
	d, x1, x2, y1, y2 := g.AddNode("d"), g.AddNode("x1"), g.AddNode("x2"), g.AddNode("y1"), g.AddNode("y2")
	g.AddLink(d, y1)
	g.AddLink(d, y2)
	g.AddLink(y1, x1)
	g.AddLink(y1, x2)
	key := func(u, v topo.NodeID) core.EdgeKey {
		if (u == y1 || u == y2) && (v == x1 || v == x2) || u == d {
			return core.EdgeKey{}
		}
		return uniformKey(u, v)
	}
	live := topo.NewEdgeSet(len(g.Edges()))
	for i, e := range g.Edges() {
		if !key(e.U, e.V).Dead() {
			live.Set(i)
		}
	}
	prefs := func(u topo.NodeID) int {
		if u == x1 || u == x2 {
			return 2
		}
		return 1
	}
	abs := core.Assemble(g, d, []int{0, 1, 1, 2, 2}, core.AssembleOptions{Mode: core.ModeBGP, Prefs: prefs, LiveEdges: live})
	c := &Checker{Abs: abs, G: g, EdgeKey: key}
	if err := c.CheckForallExists(); err != nil {
		t.Fatalf("test premise broken: %v", err)
	}
	if err := c.CheckAll(core.ModeBGP, prefs); err == nil {
		t.Fatal("∀∀ violation not detected")
	}
}

func TestDetectsTransferInequivalence(t *testing.T) {
	// Two parallel middle nodes with different policies, manually merged.
	g := topo.New()
	d, m1, m2, a := g.AddNode("d"), g.AddNode("m1"), g.AddNode("m2"), g.AddNode("a")
	g.AddLink(d, m1)
	g.AddLink(d, m2)
	g.AddLink(m1, a)
	g.AddLink(m2, a)
	key := func(u, v topo.NodeID) core.EdgeKey {
		k := core.EdgeKey{BGP: true, BGPRel: 7, ACLPermit: true}
		if u == m2 || v == m2 {
			k.BGPRel = 8
		}
		return k
	}
	abs := core.FindAbstraction(g, d, core.Options{Mode: core.ModeEffective, EdgeKey: key})
	if abs.F[m1] == abs.F[m2] {
		t.Fatal("algorithm should have split m1/m2")
	}
	// Force-merge them and expect the checker to object.
	gi := abs.F[m1]
	abs.F[m2] = gi
	abs.Groups = [][]topo.NodeID{{d}, {m1, m2}, {a}}
	abs.F = []int{0, 1, 1, 2}
	c := &Checker{Abs: abs, G: g, EdgeKey: key}
	if err := c.CheckTransferEquivalence(); err == nil {
		t.Fatal("transfer inequivalence not detected")
	}
}

func TestSelfLoopReporting(t *testing.T) {
	// Triangle with the destination: the two non-dest nodes are adjacent
	// and symmetric, so they merge with an internal live edge.
	g := topo.New()
	d, x, y := g.AddNode("d"), g.AddNode("x"), g.AddNode("y")
	g.AddLink(d, x)
	g.AddLink(d, y)
	g.AddLink(x, y)
	abs := core.FindAbstraction(g, d, core.Options{Mode: core.ModeEffective, EdgeKey: uniformKey})
	c := &Checker{Abs: abs, G: g, EdgeKey: uniformKey}
	if abs.F[x] == abs.F[y] {
		if internal := c.CheckSelfLoopFreedom(); len(internal) == 0 {
			t.Fatal("internal adjacency not reported")
		}
	}
}
