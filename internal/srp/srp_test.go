package srp

import (
	"errors"
	"math/rand"
	"testing"

	"bonsai/internal/topo"
)

// hopProto is a minimal shortest-path protocol for solver tests.
type hopProto struct{ limit int }

func (p *hopProto) Name() string { return "hops" }
func (p *hopProto) Origin() Attr { return 0 }
func (p *hopProto) Compare(a, b Attr) int {
	return a.(int) - b.(int)
}
func (p *hopProto) Equal(a, b Attr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.(int) == b.(int)
}
func (p *hopProto) Transfer(_ int, e topo.Edge, a Attr) Attr {
	if a == nil {
		return nil
	}
	h := a.(int) + 1
	if p.limit > 0 && h > p.limit {
		return nil
	}
	return h
}

// growProto has no stable solution on any cycle: larger attributes are
// preferred and transfer increments, so two mutually-reachable nodes chase
// each other upward forever (a divergence gadget in the spirit of BGP's bad
// gadget).
type growProto struct{}

func (growProto) Name() string { return "grow" }
func (growProto) Origin() Attr { return 0 }
func (growProto) Compare(a, b Attr) int {
	return b.(int) - a.(int) // bigger is better
}
func (growProto) Equal(a, b Attr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.(int) == b.(int)
}
func (growProto) Transfer(_ int, e topo.Edge, a Attr) Attr {
	if a == nil {
		return nil
	}
	return a.(int) + 1
}

func lineGraph(n int) (*topo.Graph, []topo.NodeID) {
	g := topo.New()
	ids := make([]topo.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(string(rune('a'+i/26)) + string(rune('a'+i%26)))
	}
	for i := 1; i < n; i++ {
		g.AddLink(ids[i-1], ids[i])
	}
	return g, ids
}

func TestSolveShortestPaths(t *testing.T) {
	g, ids := lineGraph(6)
	sol, err := Solve(&Instance{G: g, Dest: ids[0], P: &hopProto{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if sol.Label[id].(int) != i {
			t.Fatalf("label[%d] = %v, want %d", i, sol.Label[id], i)
		}
	}
}

// randomGraph draws a 3–14 node graph with each link present one time in
// three, and a destination.
func randomGraph(rng *rand.Rand) (*topo.Graph, []topo.NodeID, topo.NodeID) {
	n := 3 + rng.Intn(12)
	g := topo.New()
	ids := make([]topo.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(string(rune('a'+i/26)) + string(rune('a'+i%26)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				g.AddLink(ids[i], ids[j])
			}
		}
	}
	return g, ids, ids[rng.Intn(n)]
}

func TestSolveRandomGraphsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g, ids, dest := randomGraph(rng)
		n := len(ids)
		sol, err := Solve(&Instance{G: g, Dest: dest, P: &hopProto{}})
		if err != nil {
			t.Fatal(err)
		}
		// Reference BFS distances.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[dest] = 0
		queue := []topo.NodeID{dest}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Succ(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for i, id := range ids {
			want := dist[id]
			if want < 0 {
				if sol.Label[id] != nil {
					t.Fatalf("trial %d: unreachable node %d labelled %v", trial, i, sol.Label[id])
				}
				continue
			}
			if sol.Label[id] == nil || sol.Label[id].(int) != want {
				t.Fatalf("trial %d: label[%d] = %v, want %d", trial, i, sol.Label[id], want)
			}
		}
		// Forwarding must follow decreasing distance.
		for i, id := range ids {
			for _, v := range sol.Fwd[id] {
				if dist[v] != dist[id]-1 {
					t.Fatalf("trial %d: node %d forwards uphill", trial, i)
				}
			}
		}
	}
}

func TestSolveDivergence(t *testing.T) {
	// d - x - y with x and y also connected: x and y improve through each
	// other without bound.
	g := topo.New()
	d, x, y := g.AddNode("d"), g.AddNode("x"), g.AddNode("y")
	g.AddLink(d, x)
	g.AddLink(x, y)
	_, err := Solve(&Instance{G: g, Dest: d, P: growProto{}}, WithMaxSweeps(50))
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestCheckRejectsBadLabelings(t *testing.T) {
	g, ids := lineGraph(4)
	inst := &Instance{G: g, Dest: ids[0], P: &hopProto{}}
	sol, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(sol); err != nil {
		t.Fatal(err)
	}
	// Wrong label value.
	bad := &Solution{Label: append([]Attr(nil), sol.Label...), Fwd: sol.Fwd}
	bad.Label[ids[2]] = 7
	if inst.Check(bad) == nil {
		t.Fatal("wrong label accepted")
	}
	// Missing label.
	bad2 := &Solution{Label: append([]Attr(nil), sol.Label...), Fwd: sol.Fwd}
	bad2.Label[ids[3]] = nil
	if inst.Check(bad2) == nil {
		t.Fatal("dropped label accepted")
	}
	// Wrong destination label.
	bad3 := &Solution{Label: append([]Attr(nil), sol.Label...), Fwd: sol.Fwd}
	bad3.Label[ids[0]] = 5
	if inst.Check(bad3) == nil {
		t.Fatal("wrong origin accepted")
	}
	// Wrong length.
	if inst.Check(&Solution{Label: sol.Label[:2]}) == nil {
		t.Fatal("short labelling accepted")
	}
}

func TestWithOrderReachesSameUniqueSolution(t *testing.T) {
	// Shortest-path SRPs have a unique label solution; every activation
	// order must find it.
	g, ids := lineGraph(8)
	inst := &Instance{G: g, Dest: ids[0], P: &hopProto{}}
	base, err := Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		sol, err := Solve(inst, WithOrder(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := range sol.Label {
			if !inst.P.Equal(sol.Label[i], base.Label[i]) {
				t.Fatalf("seed %d: labels diverge at %d", seed, i)
			}
		}
	}
}

func TestSolveAllDedups(t *testing.T) {
	g, ids := lineGraph(5)
	inst := &Instance{G: g, Dest: ids[0], P: &hopProto{}}
	sols := SolveAll(inst, 16)
	if len(sols) != 1 {
		t.Fatalf("unique-solution SRP reported %d solutions", len(sols))
	}
}

func TestHopLimitCreatesBottom(t *testing.T) {
	g, ids := lineGraph(8)
	sol, err := Solve(&Instance{G: g, Dest: ids[0], P: &hopProto{limit: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Label[ids[4]] == nil || sol.Label[ids[5]] != nil {
		t.Fatalf("hop limit wrong: %v %v", sol.Label[ids[4]], sol.Label[ids[5]])
	}
}

func TestMapAttrDefaultIdentity(t *testing.T) {
	p := &hopProto{}
	if got := MapAttr(p, 3, func(n topo.NodeID) topo.NodeID { return n + 1 }); got.(int) != 3 {
		t.Fatalf("MapAttr changed an attribute without NodeMapper: %v", got)
	}
}
