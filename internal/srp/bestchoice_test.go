package srp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bonsai/internal/topo"
)

// bestChoiceReference is bestChoice as it was while it evaluated Transfer
// twice per neighbor — once to rank, once to pick. The production version
// keeps pass 1's offers; it must visit the same neighbors in the same order,
// make the same comparisons and draw from tieRng the same number of times.
func bestChoiceReference(inst *Instance, label []Attr, u topo.NodeID, tieRng *rand.Rand) Attr {
	// Pass 1: find the minimal rank.
	var best Attr
	for _, v := range inst.G.Succ(u) {
		a := inst.P.Transfer(topo.Edge{U: u, V: v}, label[v])
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
		a := inst.P.Transfer(topo.Edge{U: u, V: v}, label[v])
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
					t.Fatalf("trial %d %s seed %d: err %v, reference %v", trial, p.Name(), seed, err, wantErr)
				}
				if err != nil {
					continue
				}
				for u := range want {
					if !p.Equal(sol.Label[u], want[u]) {
						t.Fatalf("trial %d %s seed %d: label[%d] = %v, reference %v",
							trial, p.Name(), seed, u, sol.Label[u], want[u])
					}
				}
				if fwd := forwarding(inst, want); !reflect.DeepEqual(sol.Fwd, fwd) {
					t.Fatalf("trial %d %s seed %d: fwd %v, reference %v", trial, p.Name(), seed, sol.Fwd, fwd)
				}
			}
		}
	}
}
