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
	facts := f.Analyse()
	if !facts[g.MustLookup("a")].Reaches {
		t.Fatal("a should reach d")
	}
	if facts[g.MustLookup("c")].Reaches {
		t.Fatal("disconnected c should not reach d")
	}
	rs := f.ReachableSet()
	for u, x := range facts {
		if rs[u] != x.Reaches {
			t.Fatalf("ReachableSet says %v of %s, Analyse %v", rs[u], g.Name(topo.NodeID(u)), x.Reaches)
		}
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
	if sol.Label[b] == nil {
		t.Fatal("ACL must not remove routes")
	}
	facts := f.Analyse()
	if facts[a].Reaches || facts[b].Reaches {
		t.Fatal("ACL should block traffic through b->d")
	}
	if !facts[b].BlackHole || facts[a].BlackHole || facts[d].BlackHole {
		t.Fatalf("b alone should be a black hole: %+v", facts)
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
	facts := New(inst, sol, nil).Analyse()
	if !facts[a].Loop || !facts[b].Loop {
		t.Fatal("static loop not detected")
	}
	if facts[a].Reaches || facts[a].MaxHops != -1 {
		t.Fatalf("looping traffic must not count as reachable, nor have a longest path: %+v", facts[a])
	}
	// Loop-free network reports no loop.
	f2, _ := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}}, "d", nil)
	for _, x := range f2.Analyse() {
		if x.Loop {
			t.Fatal("false loop")
		}
	}
}

func TestPathLengths(t *testing.T) {
	// Diamond: a-b-d and a-c-d (equal) plus a long tail a-e-f-d... RIP
	// picks shortest so max == min == 2 here.
	f, g := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}}, "d", nil)
	facts := f.Analyse()
	if x := facts[g.MustLookup("a")]; !x.Reaches || x.MinHops != 2 || x.MaxHops != 2 {
		t.Fatalf("a's facts = %+v", x)
	}
	if x := facts[g.MustLookup("d")]; !x.Reaches || x.MinHops != 0 || x.MaxHops != 0 {
		t.Fatalf("dest should reach itself with length 0: %+v", x)
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
	if x := blocked.Analyse()[a]; !x.Inconsistent || !x.Reaches {
		t.Fatalf("half-blocked multipath should be inconsistent: %+v", x)
	}
	if blocked.Analyse()[c].Inconsistent {
		t.Fatal("c delivers nothing, so nothing it sends is inconsistent")
	}
	clean := New(inst, sol, nil)
	if clean.Analyse()[a].Inconsistent {
		t.Fatal("clean multipath reported inconsistent")
	}
}

func TestBlackHolesNoRoute(t *testing.T) {
	f, _ := ripFIB(t, [][2]string{{"a", "b"}, {"b", "d"}, {"x", "a"}}, "d", nil)
	// x has a route (via a); nobody black-holes in this connected chain.
	for u, x := range f.Analyse() {
		if x.BlackHole {
			t.Fatalf("unexpected black hole at %d", u)
		}
	}
}
