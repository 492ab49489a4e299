package core

import (
	"testing"

	"bonsai/internal/topo"
)

// FindAbstractionSweep runs Algorithm 1 with the naive sweep scheduler, the
// reference of the differential tests in diff_test.go. It lives here and not
// beside them because they are package core_test (they import
// internal/build, which imports this package).
func FindAbstractionSweep(g *topo.Graph, dest topo.NodeID, opt Options) *Abstraction {
	return findAbstraction(g, dest, opt, true)
}

// uniformKey gives every edge the same live BGP policy.
func uniformKey(u, v topo.NodeID) EdgeKey {
	return EdgeKey{BGP: true, BGPRel: 42, ACLPermit: true}
}

func TestRingCompression(t *testing.T) {
	// A ring of n nodes compresses to n/2 + 1 abstract nodes: the
	// destination, one group per distance pair {i, n-i}, and the antipode
	// (paper Table 1a, Ring).
	for _, n := range []int{8, 10, 20} {
		g := topo.New()
		ids := make([]topo.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = g.AddNode(string(rune('A'+i/26)) + string(rune('a'+i%26)))
		}
		for i := 0; i < n; i++ {
			g.AddLink(ids[i], ids[(i+1)%n])
		}
		abs := FindAbstraction(g, ids[0], Options{Mode: ModeEffective, EdgeKey: uniformKey})
		want := n/2 + 1
		if got := abs.NumAbstractNodes(); got != want {
			t.Fatalf("ring %d: abstract nodes = %d, want %d", n, got, want)
		}
		if got := abs.NumAbstractEdges(); got != want-1 {
			t.Fatalf("ring %d: abstract links = %d, want %d (a path)", n, got, want-1)
		}
		// Distance symmetry: nodes i and n-i share a group.
		for i := 1; i < n/2; i++ {
			if abs.F[ids[i]] != abs.F[ids[n-i]] {
				t.Fatalf("ring %d: %d and %d not grouped", n, i, n-i)
			}
		}
	}
}

func TestMeshCompression(t *testing.T) {
	// A full mesh where only edges touching the destination are live (the
	// paper's per-destination prefix filters) compresses to 2 nodes and 1
	// link (Table 1a, Full Mesh).
	n := 10
	g := topo.New()
	ids := make([]topo.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddLink(ids[i], ids[j])
		}
	}
	dest := ids[0]
	key := func(u, v topo.NodeID) EdgeKey {
		if u == dest || v == dest {
			return EdgeKey{BGP: true, BGPRel: 1, ACLPermit: true}
		}
		return EdgeKey{} // dead: transit filtered
	}
	abs := FindAbstraction(g, dest, Options{Mode: ModeEffective, EdgeKey: key})
	if abs.NumAbstractNodes() != 2 {
		t.Fatalf("mesh: abstract nodes = %d, want 2", abs.NumAbstractNodes())
	}
	if abs.NumAbstractEdges() != 1 {
		t.Fatalf("mesh: abstract links = %d, want 1", abs.NumAbstractEdges())
	}
}

func TestStarHeterogeneousPolicies(t *testing.T) {
	// Hub with two classes of leaves distinguished only by edge policy:
	// refinement must separate them.
	g := topo.New()
	hub := g.AddNode("hub")
	var leavesA, leavesB []topo.NodeID
	for i := 0; i < 3; i++ {
		a := g.AddNode("a" + string(rune('0'+i)))
		b := g.AddNode("b" + string(rune('0'+i)))
		g.AddLink(hub, a)
		g.AddLink(hub, b)
		leavesA = append(leavesA, a)
		leavesB = append(leavesB, b)
	}
	key := func(u, v topo.NodeID) EdgeKey {
		name := g.Name(u)
		if u == hub {
			name = g.Name(v)
		}
		if name[0] == 'a' {
			return EdgeKey{BGP: true, BGPRel: 1, ACLPermit: true}
		}
		return EdgeKey{BGP: true, BGPRel: 2, ACLPermit: true}
	}
	abs := FindAbstraction(g, hub, Options{Mode: ModeEffective, EdgeKey: key})
	// Groups: {hub}, {a leaves}, {b leaves}.
	if len(abs.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(abs.Groups))
	}
	if abs.F[leavesA[0]] != abs.F[leavesA[2]] || abs.F[leavesA[0]] == abs.F[leavesB[0]] {
		t.Fatal("policy classes not separated")
	}
}

func TestFattreeLikeRoles(t *testing.T) {
	// Two-pod toy fattree: dest edge router, its pod's aggs, cores, other
	// pod's aggs, other pod's edge routers, plus sibling edge router in the
	// dest pod -> 6 roles, matching the paper's fattree result.
	g := topo.New()
	core1, core2 := g.AddNode("c1"), g.AddNode("c2")
	aggs := [][]topo.NodeID{}
	edges := [][]topo.NodeID{}
	for p := 0; p < 2; p++ {
		a1 := g.AddNode("agg" + string(rune('0'+p)) + "a")
		a2 := g.AddNode("agg" + string(rune('0'+p)) + "b")
		e1 := g.AddNode("edge" + string(rune('0'+p)) + "a")
		e2 := g.AddNode("edge" + string(rune('0'+p)) + "b")
		for _, a := range []topo.NodeID{a1, a2} {
			g.AddLink(a, core1)
			g.AddLink(a, core2)
			g.AddLink(a, e1)
			g.AddLink(a, e2)
		}
		aggs = append(aggs, []topo.NodeID{a1, a2})
		edges = append(edges, []topo.NodeID{e1, e2})
	}
	dest := edges[0][0]
	abs := FindAbstraction(g, dest, Options{Mode: ModeEffective, EdgeKey: uniformKey})
	if got := abs.NumAbstractNodes(); got != 6 {
		t.Fatalf("fattree roles = %d, want 6", got)
	}
	if abs.F[aggs[0][0]] != abs.F[aggs[0][1]] {
		t.Fatal("same-pod aggs split")
	}
	if abs.F[aggs[0][0]] == abs.F[aggs[1][0]] {
		t.Fatal("dest-pod and remote aggs merged")
	}
	if abs.F[core1] != abs.F[core2] {
		t.Fatal("cores split")
	}
	if abs.F[edges[0][1]] == abs.F[edges[1][0]] {
		t.Fatal("sibling edge and remote edge merged")
	}
	if got := abs.NumAbstractEdges(); got != 5 {
		t.Fatalf("fattree abstract links = %d, want 5", got)
	}
}

func TestBGPGadgetSplitting(t *testing.T) {
	// Figure 2/3: b1,b2,b3 fully meshed, all linked to a (above) and d
	// (below), with two possible local preferences -> the b group stays
	// together and splits into 2 copies; final abstraction has 4 nodes.
	g := topo.New()
	a := g.AddNode("a")
	b1, b2, b3 := g.AddNode("b1"), g.AddNode("b2"), g.AddNode("b3")
	d := g.AddNode("d")
	for _, b := range []topo.NodeID{b1, b2, b3} {
		g.AddLink(a, b)
		g.AddLink(b, d)
	}
	g.AddLink(b1, b2)
	g.AddLink(b2, b3)
	g.AddLink(b1, b3)
	prefs := func(u topo.NodeID) int {
		if u == b1 || u == b2 || u == b3 {
			return 2
		}
		return 1
	}
	abs := FindAbstraction(g, d, Options{Mode: ModeBGP, EdgeKey: uniformKey, Prefs: prefs})
	// Groups: {d}, {a}, {b1,b2,b3}.
	if len(abs.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(abs.Groups))
	}
	if abs.F[b1] != abs.F[b2] || abs.F[b2] != abs.F[b3] {
		t.Fatal("b nodes should remain one group under group-wise forall-forall")
	}
	// 4 abstract nodes after splitting the b group in two.
	if got := abs.NumAbstractNodes(); got != 4 {
		t.Fatalf("abstract nodes = %d, want 4", got)
	}
	bGroup := abs.F[b1]
	if len(abs.Copies[bGroup]) != 2 {
		t.Fatalf("b copies = %d, want 2", len(abs.Copies[bGroup]))
	}
	// The two b copies are connected to each other, to a and to d.
	c0, c1 := abs.Copies[bGroup][0], abs.Copies[bGroup][1]
	if !abs.AbsG.HasEdge(c0, c1) || !abs.AbsG.HasEdge(c1, c0) {
		t.Fatal("split copies must interconnect")
	}
	if !abs.AbsG.HasEdge(c0, abs.AbsDest) {
		t.Fatal("b copy lost its edge to the destination")
	}
}

func TestModeEffectiveIgnoresPrefs(t *testing.T) {
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, d)
	g.AddLink(b, d)
	prefs := func(topo.NodeID) int { return 3 }
	abs := FindAbstraction(g, d, Options{Mode: ModeEffective, EdgeKey: uniformKey, Prefs: prefs})
	if abs.NumAbstractNodes() != 2 {
		t.Fatalf("effective mode must not split cases: %d nodes", abs.NumAbstractNodes())
	}
}

func TestDestIsAlone(t *testing.T) {
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, d)
	g.AddLink(b, d)
	g.AddLink(a, b)
	abs := FindAbstraction(g, d, Options{Mode: ModeEffective, EdgeKey: uniformKey})
	if len(abs.Groups[abs.F[d]]) != 1 {
		t.Fatal("destination must be its own abstract node (dest-equivalence)")
	}
	if abs.FAbs(d) != abs.AbsDest {
		t.Fatal("AbsDest inconsistent with FAbs")
	}
}

func TestRepEdgeConsistency(t *testing.T) {
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, d)
	g.AddLink(b, d)
	abs := FindAbstraction(g, d, Options{Mode: ModeEffective, EdgeKey: uniformKey})
	if len(abs.RepEdge) != abs.AbsG.NumEdges() {
		t.Fatalf("%d representatives for %d abstract edges", len(abs.RepEdge), abs.AbsG.NumEdges())
	}
	for k, e := range abs.AbsG.Edges() {
		rep := abs.RepEdge[k]
		if !g.HasEdge(rep.U, rep.V) {
			t.Fatalf("abstract edge %v: representative %v is not an edge", e, rep)
		}
		if abs.FAbs(rep.U) != e.U || abs.FAbs(rep.V) != e.V {
			t.Fatalf("representative %v does not map to %v", rep, e)
		}
	}
}

func TestDeadEdgesExcluded(t *testing.T) {
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, d)
	g.AddLink(b, d)
	g.AddLink(a, b)
	key := func(u, v topo.NodeID) EdgeKey {
		if (u == a && v == b) || (u == b && v == a) {
			return EdgeKey{} // dead
		}
		return EdgeKey{Static: true}
	}
	abs := FindAbstraction(g, d, Options{Mode: ModeEffective, EdgeKey: key})
	if abs.NumAbstractNodes() != 2 || abs.NumAbstractEdges() != 1 {
		t.Fatalf("dead edge leaked: %d nodes, %d links",
			abs.NumAbstractNodes(), abs.NumAbstractEdges())
	}
}
