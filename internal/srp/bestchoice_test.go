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
// keeps pass 1's offers; it must visit the same neighbors in the same order,
// make the same comparisons and draw from tieRng the same number of times.
func bestChoiceReference(inst *Instance, label []Attr, u topo.NodeID, tieRng *rand.Rand) Attr {
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
	// Pass 2: among minimal candidates, prefer the current label, then a
	// random one (reservoir), then the first.
	var pick Attr
	ties := 0
	for _, v := range inst.G.Succ(u) {
		a := inst.P.Transfer(scanIndex(inst.G, u, v), topo.Edge{U: u, V: v}, label[v])
		if a == nil || inst.P.Compare(a, best) != 0 {
			continue
		}
		if inst.P.Equal(a, label[u]) {
			return a // sticky: quiescence under ties
		}
		ties++
		if pick == nil || (tieRng != nil && tieRng.Intn(ties) == 0) {
			pick = a
		}
	}
	return pick
}

// solveReference is Solve's iteration around bestChoiceReference: same
// activation order, same tie source, same sweep budget.
func solveReference(inst *Instance, seed int64, useSeed bool) ([]Attr, error) {
	n := inst.G.NumNodes()
	var order []topo.NodeID
	for _, u := range inst.G.Nodes() {
		if u != inst.Dest {
			order = append(order, u)
		}
	}
	var tieRng *rand.Rand
	if useSeed {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		tieRng = rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	}
	label := make([]Attr, n)
	label[inst.Dest] = inst.P.Origin()
	for sweep := 0; sweep < 2*n+64; sweep++ {
		changed := false
		for _, u := range order {
			best := bestChoiceReference(inst, label, u, tieRng)
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
// attributes (so every tieRng draw shows in the labels) and one that
// diverges — in the deterministic order and under ten seeds.
func TestSolveMatchesTwoPassReference(t *testing.T) {
	protos := []Protocol{&hopProto{}, &hopProto{limit: 2}, pathProto{}, growProto{}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g, _, dest := randomGraph(rng)
		for _, p := range protos {
			inst := &Instance{G: g, Dest: dest, P: p}
			for seed := int64(-1); seed < 10; seed++ {
				var opts []Option
				if seed >= 0 {
					opts = append(opts, WithOrder(seed))
				}
				want, wantErr := solveReference(inst, seed, seed >= 0)
				sol, err := Solve(inst, opts...)
				if !errors.Is(err, wantErr) {
					t.Fatalf("trial %d %T seed %d: err %v, reference %v", trial, p, seed, err, wantErr)
				}
				if err != nil {
					continue
				}
				for u := range want {
					if !p.Equal(sol.Label[u], want[u]) {
						t.Fatalf("trial %d %T seed %d: label[%d] = %v, reference %v",
							trial, p, seed, u, sol.Label[u], want[u])
					}
				}
				if fwd := forwarding(inst, want); !reflect.DeepEqual(sol.Fwd, fwd) {
					t.Fatalf("trial %d %T seed %d: fwd %v, reference %v", trial, p, seed, sol.Fwd, fwd)
				}
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

// TestTransferReceivesEdgeIndex: every Transfer that Solve, forwarding and
// Instance.Check make carries the edge's own index, on graphs whose links
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
			for seed := int64(-1); seed < 4; seed++ {
				var opts []Option
				if seed >= 0 {
					opts = append(opts, WithOrder(seed))
				}
				sol, err := Solve(inst, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := solveReference(inst, seed, seed >= 0)
				if err != nil {
					t.Fatal(err)
				}
				for u := range want {
					if !p.Equal(sol.Label[u], want[u]) {
						t.Fatalf("trial %d %T seed %d: label[%d] = %v, reference %v",
							trial, p, seed, u, sol.Label[u], want[u])
					}
				}
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
