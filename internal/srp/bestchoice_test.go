package srp

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bonsai/internal/topo"
)

// scanIndex finds an edge's position in Edges() by walking the list, so the
// references below owe nothing to Graph.EdgeIndex.
func scanIndex(g *topo.Graph, u, v topo.NodeID) int {
	for i, e := range g.Edges() {
		if e.U == u && e.V == v {
			return i
		}
	}
	panic("scanIndex: not an edge")
}

// bestChoiceReference is bestChoice as it was while it evaluated Transfer
// twice per neighbor — once to rank, once to pick. The production version
// keeps one pass; it must visit the same neighbors in the same order and
// make the same choice.
func bestChoiceReference(inst *Instance, label []Attr, u topo.NodeID) Attr {
	// Pass 1: find the minimal rank.
	var best Attr
	for _, v := range inst.G.Succ(u) {
		a := inst.P.Transfer(scanIndex(inst.G, u, v), topo.Edge{U: u, V: v}, label[v])
		if a == nil {
			continue
		}
		if best == nil || inst.P.Compare(a, best) < 0 {
			best = a
		}
	}
	if best == nil {
		return nil
	}
	// Pass 2: among minimal candidates, prefer the current label, then the
	// first.
	var pick Attr
	for _, v := range inst.G.Succ(u) {
		a := inst.P.Transfer(scanIndex(inst.G, u, v), topo.Edge{U: u, V: v}, label[v])
		if a == nil || inst.P.Compare(a, best) != 0 {
			continue
		}
		if inst.P.Equal(a, label[u]) {
			return a // sticky: quiescence under ties
		}
		if pick == nil {
			pick = a
		}
	}
	return pick
}

// solveReference is Solve's iteration around bestChoiceReference: same
// activation order, same sweep budget.
func solveReference(inst *Instance) ([]Attr, error) {
	n := inst.G.NumNodes()
	label := make([]Attr, n)
	label[inst.Dest] = inst.P.Origin()
	for sweep := 0; sweep < 2*n+64; sweep++ {
		changed := false
		for _, u := range inst.G.Nodes() {
			if u == inst.Dest {
				continue
			}
			best := bestChoiceReference(inst, label, u)
			if !inst.P.Equal(best, label[u]) {
				label[u] = best
				changed = true
			}
		}
		if !changed {
			return label, nil
		}
	}
	return nil, ErrDiverged
}

// TestSolveMatchesTwoPassReference holds Solve to the two-pass bestChoice on
// the random graphs of TestSolveRandomGraphsMatchBFS, under a protocol with
// unique best routes, one that drops routes, one whose ties are distinct
// attributes and one that diverges. Each of its solutions must also be one
// Solutions counts, and a diverging Solve must meet an empty complete set.
func TestSolveMatchesTwoPassReference(t *testing.T) {
	protos := []Protocol{&hopProto{}, &hopProto{limit: 2}, pathProto{}, growProto{}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g, _, dest := randomGraph(rng)
		for _, p := range protos {
			inst := &Instance{G: g, Dest: dest, P: p}
			want, wantErr := solveReference(inst)
			sol, err := Solve(inst)
			if !errors.Is(err, wantErr) {
				t.Fatalf("trial %d %T: err %v, reference %v", trial, p, err, wantErr)
			}
			sols, complete := Solutions(inst, Budget)
			if !complete {
				t.Fatalf("trial %d %T: Solutions incomplete", trial, p)
			}
			if err != nil {
				if len(sols) != 0 {
					t.Fatalf("trial %d %T: Solve diverged, Solutions found %d", trial, p, len(sols))
				}
				continue
			}
			for u := range want {
				if !p.Equal(sol.Label[u], want[u]) {
					t.Fatalf("trial %d %T: label[%d] = %v, reference %v",
						trial, p, u, sol.Label[u], want[u])
				}
			}
			if fwd := forwarding(inst, want); !reflect.DeepEqual(sol.Fwd, fwd) {
				t.Fatalf("trial %d %T: fwd %v, reference %v", trial, p, sol.Fwd, fwd)
			}
			if !slices.ContainsFunc(sols, func(s *Solution) bool { return sameBehaviour(p, s, sol) }) {
				t.Fatalf("trial %d %T: Solve's solution is not among the %d Solutions counts", trial, p, len(sols))
			}
		}
	}
}

// indexProto forwards to the protocol it wraps after holding every Transfer
// to the contract: i is e's position in the instance graph's Edges().
type indexProto struct {
	Protocol
	t     *testing.T
	g     *topo.Graph
	calls int
}

func (p *indexProto) Transfer(i int, e topo.Edge, a Attr) Attr {
	p.calls++
	if want := scanIndex(p.g, e.U, e.V); i != want {
		p.t.Fatalf("Transfer(%d, (%d,%d)): the edge's index is %d", i, e.U, e.V, want)
	}
	return p.Protocol.Transfer(i, e, a)
}

// TestTransferReceivesEdgeIndex: every Transfer that Solve, Solutions,
// forwarding and Instance.Check make carries the edge's own index, on graphs whose links
// were inserted in shuffled order — so Succ order is not Edges() order, and
// a solver that walked a node's out-span instead of Succ would either pass
// the wrong index here or break ties unlike the reference.
func TestTransferReceivesEdgeIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	unsorted := 0
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(10)
		g := topo.New()
		for i := 0; i < n; i++ {
			g.AddNode(string(rune('a' + i)))
		}
		var links [][2]topo.NodeID
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					links = append(links, [2]topo.NodeID{topo.NodeID(i), topo.NodeID(j)})
				}
			}
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		for _, l := range links {
			g.AddLink(l[0], l[1])
		}
		for _, u := range g.Nodes() {
			if !slices.IsSorted(g.Succ(u)) {
				unsorted++
			}
		}
		dest := topo.NodeID(rng.Intn(n))
		for _, base := range []Protocol{&hopProto{}, &hopProto{limit: 2}, pathProto{}} {
			p := &indexProto{Protocol: base, t: t, g: g}
			inst := &Instance{G: g, Dest: dest, P: p}
			sol, err := Solve(inst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solveReference(inst)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want {
				if !p.Equal(sol.Label[u], want[u]) {
					t.Fatalf("trial %d %T: label[%d] = %v, reference %v", trial, p, u, sol.Label[u], want[u])
				}
			}
			if _, complete := Solutions(inst, Budget); !complete {
				t.Fatalf("trial %d %T: Solutions incomplete", trial, p)
			}
			if g.NumEdges() > 0 && p.calls == 0 {
				t.Fatalf("trial %d %T: no Transfer went through the wrapper", trial, p)
			}
		}
	}
	if unsorted == 0 {
		t.Fatal("no node's Succ order differs from sorted order: the test distinguishes nothing")
	}
}
