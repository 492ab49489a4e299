package dataplane

import (
	"testing"

	"bonsai/internal/protocols"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// ripFIB builds a FIB for a small RIP network.
func ripFIB(t *testing.T, edges [][2]string, dest string, acl func(u, v topo.NodeID) bool) (*FIB, *topo.Graph) {
	t.Helper()
	g := topo.New()
	for _, e := range edges {
		a, b := g.AddNode(e[0]), g.AddNode(e[1])
		g.AddLink(a, b)
	}
	inst := &srp.Instance{G: g, Dest: g.MustLookup(dest), P: &protocols.RIP{}}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	return New(inst, sol, acl), g
}

func TestReachability(t *testing.T) {
	f, g := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}, {"c", "c2"}}, "d", nil)
	if !f.Reachable(g.MustLookup("a")) {
		t.Fatal("a should reach d")
	}
	if f.Reachable(g.MustLookup("c")) {
		t.Fatal("disconnected c should not reach d")
	}
	rs := f.ReachableSet()
	if !rs[g.MustLookup("b")] || rs[g.MustLookup("c2")] {
		t.Fatal("ReachableSet disagrees with Reachable")
	}
	if !rs[g.MustLookup("d")] {
		t.Fatal("dest must be in its own reachable set")
	}
}

func TestACLBlocksTraffic(t *testing.T) {
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, b)
	g.AddLink(b, d)
	inst := &srp.Instance{G: g, Dest: d, P: &protocols.RIP{}}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	f := New(inst, sol, func(u, v topo.NodeID) bool { return !(u == b && v == d) })
	// Routing still works (b has a route) but traffic is dropped.
	if !f.HasRoute[b] {
		t.Fatal("ACL must not remove routes")
	}
	if f.Reachable(a) || f.Reachable(b) {
		t.Fatal("ACL should block traffic through b->d")
	}
	bh := f.BlackHoles()
	found := false
	for _, u := range bh {
		if u == b {
			found = true
		}
	}
	if !found {
		t.Fatalf("b should be a black hole, got %v", bh)
	}
}

func TestLoopDetection(t *testing.T) {
	// Static-route loop a <-> b.
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, b)
	g.AddLink(b, a)
	g.AddLink(b, d)
	routes := make([]bool, g.NumEdges())
	for _, e := range []topo.Edge{{U: a, V: b}, {U: b, V: a}} {
		i, _ := g.EdgeIndex(e.U, e.V)
		routes[i] = true
	}
	p := &protocols.Static{Routes: routes}
	inst := &srp.Instance{G: g, Dest: d, P: p}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	f := New(inst, sol, nil)
	if !f.HasLoop() {
		t.Fatal("static loop not detected")
	}
	if f.Reachable(a) {
		t.Fatal("looping traffic must not count as reachable")
	}
	// Loop-free network reports no loop.
	f2, _ := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}}, "d", nil)
	if f2.HasLoop() {
		t.Fatal("false loop")
	}
}

func TestPathLengths(t *testing.T) {
	// Diamond: a-b-d and a-c-d (equal) plus a long tail a-e-f-d... RIP
	// picks shortest so max == min == 2 here.
	f, g := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}}, "d", nil)
	mn, mx, ok, maxOK := f.PathLengths(g.MustLookup("a"))
	if !ok || !maxOK || mn != 2 || mx != 2 {
		t.Fatalf("lengths = %d..%d ok=%v maxOK=%v", mn, mx, ok, maxOK)
	}
	if _, _, ok, _ := f.PathLengths(g.MustLookup("d")); !ok {
		t.Fatal("dest should reach itself with length 0")
	}
}

func TestMultipathConsistency(t *testing.T) {
	// a multipaths to b and c; c's onward edge is ACL-blocked: inconsistent.
	g := topo.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddLink(a, b)
	g.AddLink(a, c)
	g.AddLink(b, d)
	g.AddLink(c, d)
	inst := &srp.Instance{G: g, Dest: d, P: &protocols.RIP{}}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	blocked := New(inst, sol, func(u, v topo.NodeID) bool { return !(u == c && v == d) })
	if blocked.MultipathConsistent(a) {
		t.Fatal("half-blocked multipath should be inconsistent")
	}
	clean := New(inst, sol, nil)
	if !clean.MultipathConsistent(a) {
		t.Fatal("clean multipath reported inconsistent")
	}
}

func TestWaypointing(t *testing.T) {
	// All traffic from a passes b (chain a-b-d).
	f, g := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}}, "d", nil)
	wp := map[topo.NodeID]bool{g.MustLookup("b"): true}
	if !f.Waypointed(g.MustLookup("a"), wp) {
		t.Fatal("chain must be waypointed through b")
	}
	// Diamond: a can bypass b via c.
	f2, g2 := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}}, "d", nil)
	wp2 := map[topo.NodeID]bool{g2.MustLookup("b"): true}
	if f2.Waypointed(g2.MustLookup("a"), wp2) {
		t.Fatal("diamond is not waypointed through b alone")
	}
	wpBoth := map[topo.NodeID]bool{g2.MustLookup("b"): true, g2.MustLookup("c"): true}
	if !f2.Waypointed(g2.MustLookup("a"), wpBoth) {
		t.Fatal("diamond must be waypointed through {b, c}")
	}
}

func TestBlackHolesNoRoute(t *testing.T) {
	f, g := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}, {"x", "a"}}, "d", nil)
	_ = g
	bhs := f.BlackHoles()
	// x has a route (via a); nobody black-holes in this connected chain.
	if len(bhs) != 0 {
		t.Fatalf("unexpected black holes: %v", bhs)
	}
}
