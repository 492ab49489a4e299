package oracle

import (
	"fmt"
	"sort"

	"bonsai/internal/core"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// Check verifies CP-equivalence of the two solutions. It returns nil when
// the solutions are label- and fwd-equivalent.
func Check(conc *srp.Instance, concSol *srp.Solution, abst *srp.Instance, absSol *srp.Solution, abs *core.Abstraction) error {
	groupOfCopy := make(map[topo.NodeID]int)
	for gi, copies := range abs.Copies {
		for _, c := range copies {
			groupOfCopy[c] = gi
		}
	}
	// Normalisers: map path node IDs to the primary copy of their group so
	// that concrete and abstract attributes become comparable.
	concNorm := func(u topo.NodeID) topo.NodeID { return abs.Copies[abs.F[u]][0] }
	absNorm := func(c topo.NodeID) topo.NodeID { return abs.Copies[groupOfCopy[c]][0] }

	concBehavior := func(u topo.NodeID) behavior {
		lbl := srp.MapAttr(conc.P, concSol.Label[u], concNorm)
		return behavior{lbl, fwdGroups(concSol.Fwd[u], func(v topo.NodeID) int { return abs.F[v] }), conc.G.Name(u)}
	}
	absBehavior := func(c topo.NodeID) behavior {
		lbl := srp.MapAttr(abst.P, absSol.Label[c], absNorm)
		return behavior{lbl, fwdGroups(absSol.Fwd[c], func(v topo.NodeID) int { return groupOfCopy[v] }), abst.G.Name(c)}
	}

	// Labels are compared up to the comparison relation (≈): when a node has
	// several equally-good choices the SRP definition allows any of them, so
	// two tied labels with different (but rank-equal) contents correspond.
	// Rank-equivalence of effective abstractions guarantees ≈ is preserved
	// by h, and every §4.4 property depends only on fwd and rank.
	sameBehavior := func(x, y behavior) bool {
		if x.fwd != y.fwd {
			return false
		}
		if x.label == nil || y.label == nil {
			return x.label == nil && y.label == nil
		}
		return conc.P.Compare(x.label, y.label) == 0
	}

	for gi, members := range abs.Groups {
		copies := abs.Copies[gi]
		memberBs := make([]behavior, 0, len(members))
		for _, u := range members {
			memberBs = append(memberBs, concBehavior(u))
		}
		copyBs := make([]behavior, 0, len(copies))
		for _, c := range copies {
			copyBs = append(copyBs, absBehavior(c))
		}
		// Every concrete behavior must be realized by some copy
		// (label-equivalence, concrete -> abstract direction).
		for _, mb := range memberBs {
			if !anyMatch(mb, copyBs, sameBehavior) {
				return fmt.Errorf("equiv: group %d: concrete behavior of %s unmatched by any copy\n  concrete: label=%v fwd=%s\n  copies: %v",
					gi, mb.who, mb.label, mb.fwd, behaviorList(copyBs))
			}
		}
		// Every copy's behavior must occur concretely (abstract ->
		// concrete direction; keeps the abstraction from inventing
		// behaviors).
		for _, cb := range copyBs {
			if !anyMatch(cb, memberBs, sameBehavior) {
				return fmt.Errorf("equiv: group %d: abstract behavior of %s not realized concretely\n  abstract: label=%v fwd=%s\n  members: %v",
					gi, cb.who, cb.label, cb.fwd, behaviorList(memberBs))
			}
		}
	}
	return nil
}

// behavior is a node's observable role in a solution: its (normalised)
// label, the set of groups it forwards into, and its name for diagnostics.
type behavior struct {
	label srp.Attr
	fwd   string
	who   string
}

func anyMatch(b behavior, in []behavior, same func(x, y behavior) bool) bool {
	for _, o := range in {
		if same(b, o) {
			return true
		}
	}
	return false
}

func behaviorList(bs []behavior) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		out = append(out, fmt.Sprintf("{%s: label=%v fwd=%s}", b.who, b.label, b.fwd))
	}
	sort.Strings(out)
	return out
}

// fwdGroups renders the set of groups a node forwards into.
func fwdGroups(fwd []topo.NodeID, groupOf func(topo.NodeID) int) string {
	set := make(map[int]bool)
	for _, v := range fwd {
		set[groupOf(v)] = true
	}
	gs := make([]int, 0, len(set))
	for g := range set {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	return fmt.Sprint(gs)
}

// CheckAcrossSolutions verifies CP-equivalence allowing for multiple stable
// solutions: it solves both instances under several activation orders and
// requires every concrete solution to have an equivalent abstract solution
// and vice versa (the bisimulation of Theorem 4.5). numSeeds bounds the
// exploration.
func CheckAcrossSolutions(conc *srp.Instance, abst *srp.Instance, abs *core.Abstraction, numSeeds int) error {
	concSols := srp.SolveAll(conc, numSeeds)
	absSols := srp.SolveAll(abst, numSeeds)
	if len(concSols) == 0 {
		return fmt.Errorf("equiv: concrete network has no stable solution")
	}
	if len(absSols) == 0 {
		return fmt.Errorf("equiv: abstract network has no stable solution")
	}
	for i, cs := range concSols {
		matched := false
		var lastErr error
		for _, as := range absSols {
			if err := Check(conc, cs, abst, as, abs); err == nil {
				matched = true
				break
			} else {
				lastErr = err
			}
		}
		if !matched {
			return fmt.Errorf("equiv: concrete solution %d has no equivalent abstract solution: %w", i, lastErr)
		}
	}
	for i, as := range absSols {
		matched := false
		var lastErr error
		for _, cs := range concSols {
			if err := Check(conc, cs, abst, as, abs); err == nil {
				matched = true
				break
			} else {
				lastErr = err
			}
		}
		if !matched {
			return fmt.Errorf("equiv: abstract solution %d has no equivalent concrete solution: %w", i, lastErr)
		}
	}
	return nil
}
