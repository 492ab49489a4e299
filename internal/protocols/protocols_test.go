package protocols

import (
	"fmt"
	"testing"

	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// edgeVec lays a map-keyed edge table out as the vector aligned with
// g.Edges() that the protocols read.
func edgeVec[T any](g *topo.Graph, m map[topo.Edge]T) []T {
	v := make([]T, g.NumEdges())
	for e, x := range m {
		i, ok := g.EdgeIndex(e.U, e.V)
		if !ok {
			panic(fmt.Sprintf("edgeVec: (%d,%d) is not an edge", e.U, e.V))
		}
		v[i] = x
	}
	return v
}

// chainGraph builds the Figure 1 topology: a - b1 - d, a - b2 - d.
func chainGraph() (*topo.Graph, topo.NodeID, topo.NodeID, topo.NodeID, topo.NodeID) {
	g := topo.New()
	a, b1, b2, d := g.AddNode("a"), g.AddNode("b1"), g.AddNode("b2"), g.AddNode("d")
	g.AddLink(a, b1)
	g.AddLink(a, b2)
	g.AddLink(b1, d)
	g.AddLink(b2, d)
	return g, a, b1, b2, d
}

func TestRIPFigure1(t *testing.T) {
	g, a, b1, b2, d := chainGraph()
	inst := &srp.Instance{G: g, Dest: d, P: &RIP{}}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := map[topo.NodeID]int{d: 0, b1: 1, b2: 1, a: 2}
	for u, w := range want {
		if sol.Label[u].(int) != w {
			t.Fatalf("label[%s] = %v, want %d", g.Name(u), sol.Label[u], w)
		}
	}
	// a forwards to both b1 and b2 (equal cost).
	if len(sol.Fwd[a]) != 2 {
		t.Fatalf("fwd[a] = %v, want both b's", sol.Fwd[a])
	}
	if len(sol.Fwd[b1]) != 1 || sol.Fwd[b1][0] != d {
		t.Fatalf("fwd[b1] = %v", sol.Fwd[b1])
	}
}

func TestRIPHopLimit(t *testing.T) {
	g := topo.New()
	var prev topo.NodeID
	for i := 0; i < 20; i++ {
		u := g.AddNode(string(rune('a' + i)))
		if i > 0 {
			g.AddLink(prev, u)
		}
		prev = u
	}
	d, _ := g.Lookup("a")
	inst := &srp.Instance{G: g, Dest: d, P: &RIP{}}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes at distance >= 16 must have no route.
	far := g.MustLookup(string(rune('a' + 17)))
	if sol.Label[far] != nil {
		t.Fatalf("node beyond hop limit has route %v", sol.Label[far])
	}
	near := g.MustLookup(string(rune('a' + 15)))
	if sol.Label[near] == nil {
		t.Fatal("node at hop 15 lost its route")
	}
}

func TestOSPFCostsAndAreas(t *testing.T) {
	g := topo.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddLink(a, b)
	g.AddLink(b, d)
	g.AddLink(a, c)
	g.AddLink(c, d)
	p := &OSPF{
		Cost: edgeVec(g, map[topo.Edge]int32{
			{U: a, V: b}: 10, {U: b, V: d}: 10, // expensive path
			{U: a, V: c}: 1, {U: c, V: d}: 1, // cheap path
		}),
		CrossArea: edgeVec(g, map[topo.Edge]bool{{U: a, V: c}: true}), // but inter-area
	}
	inst := &srp.Instance{G: g, Dest: d, P: p}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Despite higher cost, a prefers the intra-area path via b.
	la := sol.Label[a].(OSPFAttr)
	if la.InterArea || la.Cost != 20 {
		t.Fatalf("label[a] = %v, want intra cost 20", la)
	}
	if len(sol.Fwd[a]) != 1 || sol.Fwd[a][0] != b {
		t.Fatalf("fwd[a] = %v, want [b]", sol.Fwd[a])
	}
}

func TestBGPFigure5(t *testing.T) {
	// a - b1 - d chain plus b2 attached to both a and d:
	//   b2 prefers the long path through a because a tags announcements
	//   with community 1 and b2 raises local preference on that tag.
	g := topo.New()
	a, b1, b2, d := g.AddNode("a"), g.AddNode("b1"), g.AddNode("b2"), g.AddNode("d")
	g.AddLink(d, b1)
	g.AddLink(b1, a)
	g.AddLink(a, b2)
	g.AddLink(b2, d)

	tag := MakeCommunity(65001, 1)
	export := func(_ int, e topo.Edge, at *BGPAttr) *BGPAttr {
		if e.V == a { // a exporting (to anyone): add tag 1
			out := at.Clone()
			out.Comms = out.Comms.With(tag)
			return out
		}
		return at
	}
	imp := func(_ int, e topo.Edge, at *BGPAttr) *BGPAttr {
		if e.U == b2 && at.Comms.Has(tag) { // b2 prefers tagged routes
			out := at.Clone()
			out.LP = 200
			return out
		}
		return at
	}
	p := &BGP{Export: export, Import: imp}
	inst := &srp.Instance{G: g, Dest: d, P: p}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	lb2 := sol.Label[b2].(*BGPAttr)
	if lb2.LP != 200 {
		t.Fatalf("b2 LP = %d, want 200", lb2.LP)
	}
	wantPath := []topo.NodeID{a, b1, d}
	if len(lb2.Path) != 3 {
		t.Fatalf("b2 path = %v, want %v", lb2.Path, wantPath)
	}
	for i := range wantPath {
		if lb2.Path[i] != wantPath[i] {
			t.Fatalf("b2 path = %v, want %v", lb2.Path, wantPath)
		}
	}
	if len(sol.Fwd[b2]) != 1 || sol.Fwd[b2][0] != a {
		t.Fatalf("fwd[b2] = %v, want [a]", sol.Fwd[b2])
	}
	la := sol.Label[a].(*BGPAttr)
	if !la.Comms.Equal(NewCommSet()) {
		t.Fatalf("a's own label should carry no tag, got %v", la.Comms)
	}
}

// figure2 builds the BGP gadget of Figure 2(a): b1, b2, b3 all peer with a
// (above) and d (below) and with each other, preferring to route "down"
// through a peer b over going direct... here modelled as in the paper:
// each bi prefers routes through another bi (lp 200) over direct d (lp 100),
// and a sits above all bi.
func figure2() (*topo.Graph, *BGP, topo.NodeID, []topo.NodeID, topo.NodeID) {
	g := topo.New()
	a := g.AddNode("a")
	b1, b2, b3 := g.AddNode("b1"), g.AddNode("b2"), g.AddNode("b3")
	d := g.AddNode("d")
	bs := []topo.NodeID{b1, b2, b3}
	for _, b := range bs {
		g.AddLink(a, b)
		g.AddLink(b, d)
	}
	g.AddLink(b1, b2)
	g.AddLink(b2, b3)
	g.AddLink(b1, b3)
	isB := func(x topo.NodeID) bool { return x == b1 || x == b2 || x == b3 }
	imp := func(_ int, e topo.Edge, at *BGPAttr) *BGPAttr {
		if isB(e.U) && isB(e.V) { // bi prefers routes via peer bj
			out := at.Clone()
			out.LP = 200
			return out
		}
		return at
	}
	return g, &BGP{Import: imp}, a, bs, d
}

func TestBGPLoopPreventionGadget(t *testing.T) {
	g, p, a, bs, d := figure2()
	inst := &srp.Instance{G: g, Dest: d, P: p}
	sols := srp.SolveAll(inst, 32)
	if len(sols) == 0 {
		t.Fatal("gadget found no stable solution")
	}
	for _, sol := range sols {
		// Exactly one of the b's must route directly to d; the others
		// route through a peer.
		direct := 0
		for _, b := range bs {
			lb := sol.Label[b].(*BGPAttr)
			if lb.LP == DefaultLocalPref {
				direct++
				if len(sol.Fwd[b]) != 1 || sol.Fwd[b][0] != d {
					t.Fatalf("direct b fwd = %v", sol.Fwd[b])
				}
			}
		}
		if direct != 1 {
			t.Fatalf("want exactly 1 direct-routing b, got %d", direct)
		}
		if sol.Label[a] == nil {
			t.Fatal("a has no route")
		}
	}
	// Multiple distinct stable solutions should be discoverable (one per
	// choice of the direct router).
	if len(sols) < 2 {
		t.Logf("note: only %d distinct solutions found (order-dependent)", len(sols))
	}
}

func TestBGPWithoutLoopPreventionDiverges(t *testing.T) {
	// The same gadget without loop prevention has no stable solution of
	// this shape in bounded time: every b always prefers a peer, chasing
	// each other forever (BAD GADGET analogue).
	g, p, _, _, d := figure2()
	p.DisableLoopPrevention = true
	inst := &srp.Instance{G: g, Dest: d, P: p}
	_, err := srp.Solve(inst)
	if err == nil {
		t.Skip("gadget converged without loop prevention under this order")
	}
}

func TestStaticRoutes(t *testing.T) {
	g := topo.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddLink(a, b)
	g.AddLink(b, d)
	g.AddLink(c, d)
	p := &Static{Routes: edgeVec(g, map[topo.Edge]bool{
		{U: a, V: b}: true,
		{U: b, V: d}: true,
	})}
	inst := &srp.Instance{G: g, Dest: d, P: p}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Label[a] == nil || sol.Label[b] == nil {
		t.Fatal("static chain not labelled")
	}
	if sol.Label[c] != nil {
		t.Fatal("c has no static route but got a label")
	}
	if len(sol.Fwd[a]) != 1 || sol.Fwd[a][0] != b {
		t.Fatalf("fwd[a] = %v", sol.Fwd[a])
	}
}

func TestStaticLoopIsStable(t *testing.T) {
	// Misconfigured static routes can loop; the SRP still has a stable
	// solution (the theory must be sound for buggy configs, §4.2).
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, b)
	g.AddLink(b, a)
	g.AddLink(b, d)
	p := &Static{Routes: edgeVec(g, map[topo.Edge]bool{
		{U: a, V: b}: true,
		{U: b, V: a}: true, // loop a <-> b
	})}
	inst := &srp.Instance{G: g, Dest: d, P: p}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Label[a] == nil || sol.Label[b] == nil {
		t.Fatal("loop nodes must still be labelled")
	}
	if len(sol.Fwd[a]) != 1 || sol.Fwd[a][0] != b || len(sol.Fwd[b]) != 1 || sol.Fwd[b][0] != a {
		t.Fatal("static loop forwarding not reproduced")
	}
}

func TestCommSet(t *testing.T) {
	s := NewCommSet(MakeCommunity(1, 2), MakeCommunity(1, 1), MakeCommunity(1, 2))
	if len(s) != 2 {
		t.Fatalf("dedup failed: %v", s)
	}
	if !s.Has(MakeCommunity(1, 1)) || s.Has(MakeCommunity(9, 9)) {
		t.Fatal("Has wrong")
	}
	s2 := s.With(MakeCommunity(2, 2))
	if len(s) != 2 || len(s2) != 3 {
		t.Fatal("With must not mutate")
	}
	s3 := s2.Without(MakeCommunity(1, 1))
	if s3.Has(MakeCommunity(1, 1)) || len(s2) != 3 {
		t.Fatal("Without wrong")
	}
	if !NewCommSet().Equal(NewCommSet()) {
		t.Fatal("empty sets must be equal")
	}
	if c := MakeCommunity(65001, 3); c.String() != "65001:3" {
		t.Fatalf("String = %s", c.String())
	}
}

func TestMultiProtocolADPreference(t *testing.T) {
	// d - a via both OSPF and BGP; b - a with a static route at b.
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, d)
	g.AddLink(b, a)
	m := &Multi{
		BGP:    &BGP{},
		OSPF:   &OSPF{},
		Static: &Static{Routes: edgeVec(g, map[topo.Edge]bool{{U: b, V: a}: true})},
		BGPEdges: edgeVec(g, map[topo.Edge]bool{
			{U: a, V: d}: true, {U: d, V: a}: true,
			{U: b, V: a}: true, {U: a, V: b}: true,
		}),
		OSPFEdges: edgeVec(g, map[topo.Edge]bool{
			{U: a, V: d}: true, {U: d, V: a}: true,
		}),
		OriginBGP:  true,
		OriginOSPF: true,
	}
	inst := &srp.Instance{G: g, Dest: d, P: m}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	la := sol.Label[a].(*MultiAttr)
	if la.Best != SrcBGP {
		t.Fatalf("a best = %v, want bgp (AD 20 < OSPF 110)", la.Best)
	}
	if la.OSPF == nil {
		t.Fatal("a should still carry the OSPF route")
	}
	lb := sol.Label[b].(*MultiAttr)
	if lb.Best != SrcStatic {
		t.Fatalf("b best = %v, want static (AD 1)", lb.Best)
	}
	if lb.BGP == nil {
		t.Fatal("b should also have learned the BGP route from a")
	}
}

func TestMultiRedistribution(t *testing.T) {
	// d -ospf- a -bgp- b: without redistribution b learns nothing; with
	// OSPF->BGP redistribution at a, b gets a BGP route.
	g := topo.New()
	a, b, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("d")
	g.AddLink(a, d)
	g.AddLink(b, a)
	base := func() *Multi {
		return &Multi{
			BGP:        &BGP{},
			OSPF:       &OSPF{},
			Static:     &Static{},
			BGPEdges:   edgeVec(g, map[topo.Edge]bool{{U: b, V: a}: true, {U: a, V: b}: true}),
			OSPFEdges:  edgeVec(g, map[topo.Edge]bool{{U: a, V: d}: true, {U: d, V: a}: true}),
			OriginOSPF: true,
		}
	}
	m := base()
	inst := &srp.Instance{G: g, Dest: d, P: m}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Label[b] != nil {
		t.Fatalf("b should have no route without redistribution, got %v", sol.Label[b])
	}
	m2 := base()
	m2.Redist = func(v topo.NodeID, src RouteSource) bool { return src == SrcOSPF }
	sol2, err := srp.Solve(&srp.Instance{G: g, Dest: d, P: m2})
	if err != nil {
		t.Fatal(err)
	}
	lb := sol2.Label[b]
	if lb == nil || lb.(*MultiAttr).Best != SrcBGP {
		t.Fatalf("b = %v, want redistributed BGP route", lb)
	}
}

func TestBGPMapNodes(t *testing.T) {
	p := &BGP{}
	a := &BGPAttr{LP: 100, Path: []topo.NodeID{3, 2, 1}}
	f := func(n topo.NodeID) topo.NodeID { return n * 10 }
	m := srp.MapAttr(p, a, f).(*BGPAttr)
	if m.Path[0] != 30 || m.Path[2] != 10 {
		t.Fatalf("mapped path = %v", m.Path)
	}
	if a.Path[0] != 3 {
		t.Fatal("MapNodes mutated the input")
	}
	if srp.MapAttr(p, nil, f) != nil {
		t.Fatal("nil must map to nil")
	}
}
