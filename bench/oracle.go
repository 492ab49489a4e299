package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bonsai"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/dataplane"
	"bonsai/internal/ec"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// query is one reachability question with the answer the concrete simulator
// gives for it.
type query struct {
	src, dest string
	want      bool
}

// reference is the answer oracle. It is built from the concrete simulator
// only (one concrete srp.Solve and one forwarding table per pooled class),
// never from the compressed path, so a compression bug cannot agree with
// itself. Abstract sizes cannot come from the concrete side; they are the
// committed sums of the workload (a shortest-path fat-tree compresses to 6
// nodes and 5 links per class), which must repeat exactly.
type reference struct {
	classes int
	pool    []ec.Class
	sources []string          // every router, by node id
	reach   map[string][]bool // pool prefix -> node id -> reaches the class
	dests   map[string]topo.NodeID
	// concMS is the concrete solve + forwarding-table time of each pooled
	// class, kept for the traced run's srp.solve_conc_ms.
	concMS []float64

	absNodes, absLinks int // expected sums of abstract sizes over all classes
}

// concreteReach runs the concrete simulator for one class on b.
func concreteReach(b *build.Builder, cls ec.Class) ([]bool, topo.NodeID, error) {
	inst, err := b.Instance(cls)
	if err != nil {
		return nil, 0, err
	}
	sol, err := srp.Solve(inst)
	if err != nil {
		return nil, 0, fmt.Errorf("concrete solve of %v: %w", cls.Prefix, err)
	}
	fib := dataplane.New(inst, sol, b.ACLPermitFunc(cls))
	return fib.ReachableSet(), inst.Dest, nil
}

func buildReference(cfg *config.Network, poolClasses int, rng *rand.Rand) (*reference, error) {
	b, err := build.New(cfg)
	if err != nil {
		return nil, err
	}
	all := b.Classes()
	idx := rng.Perm(len(all))
	if poolClasses < len(idx) {
		idx = idx[:poolClasses]
	}
	sort.Ints(idx)
	ref := &reference{
		classes: len(all),
		reach:   make(map[string][]bool, len(idx)),
		dests:   make(map[string]topo.NodeID, len(idx)),
	}
	for _, u := range b.G.Nodes() {
		ref.sources = append(ref.sources, b.G.Name(u))
	}
	for _, i := range idx {
		cls := all[i]
		t0 := time.Now()
		reach, dest, err := concreteReach(b, cls)
		if err != nil {
			return nil, err
		}
		ref.concMS = append(ref.concMS, msSince(t0))
		ref.pool = append(ref.pool, cls)
		ref.reach[cls.Prefix.String()] = reach
		ref.dests[cls.Prefix.String()] = dest
	}
	return ref, nil
}

// queries draws n (src, dest) pairs uniformly from pool x all sources,
// skipping a class's own destination router.
func (r *reference) queries(rng *rand.Rand, n int) []query {
	out := make([]query, 0, n)
	for len(out) < n {
		cls := r.pool[rng.Intn(len(r.pool))]
		p := cls.Prefix.String()
		u := rng.Intn(len(r.sources))
		if topo.NodeID(u) == r.dests[p] {
			continue
		}
		out = append(out, query{src: r.sources[u], dest: p, want: r.reach[p][u]})
	}
	return out
}

// allReachable reports whether every pooled (source, class) pair delivers.
func (r *reference) allReachable() bool {
	for _, reach := range r.reach {
		for _, ok := range reach {
			if !ok {
				return false
			}
		}
	}
	return true
}

// checkVerdict compares one cold verdict with the reference: the class
// count, whether all pairs deliver, and the abstract sizes.
func (r *reference) checkVerdict(cr *bonsai.CompressReport, rep *bonsai.Report) error {
	if rep.Classes != r.classes || cr.ClassesCompressed != r.classes {
		return fmt.Errorf("verdict covers %d/%d classes, reference has %d", cr.ClassesCompressed, rep.Classes, r.classes)
	}
	if got := rep.ReachablePairs == rep.Pairs; got != r.allReachable() {
		return fmt.Errorf("verdict all-reachable=%v (%d of %d), concrete reference says %v", got, rep.ReachablePairs, rep.Pairs, r.allReachable())
	}
	if cr.SumAbstractNodes != r.absNodes || cr.SumAbstractLinks != r.absLinks || int(rep.AbstractNodeSum) != r.absNodes {
		return fmt.Errorf("abstract sizes %d nodes / %d links (verify: %d nodes), expected %d / %d",
			cr.SumAbstractNodes, cr.SumAbstractLinks, rep.AbstractNodeSum, r.absNodes, r.absLinks)
	}
	return nil
}

// corrupt is the self-test: it flips one expected answer and moves the
// expected abstract size, and returns the flipped pair so the caller can make
// sure it is asked. A run that still reports no failure has an oracle that
// cannot fail.
func (r *reference) corrupt() query {
	p := r.pool[0].Prefix.String()
	u := 0
	if r.dests[p] == 0 {
		u = 1
	}
	r.reach[p][u] = !r.reach[p][u]
	r.absNodes++
	return query{src: r.sources[u], dest: p, want: r.reach[p][u]}
}
