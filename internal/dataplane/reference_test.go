package dataplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// blockedFIB is the FIB as it was while it kept every forwarding edge in Next
// and a map of the ACL-blocked ones beside it, asking the map on every step of
// every walk: the reference the filtered FIB is held to.
type blockedFIB struct {
	G    *topo.Graph
	Dest topo.NodeID
	// Next[u] lists u's forwarding next hops (possibly several under
	// multipath).
	Next [][]topo.NodeID
	// Blocked marks edges whose ACL drops traffic to this destination.
	Blocked map[topo.Edge]bool
	// HasRoute[u] reports a non-⊥ control plane label at u.
	HasRoute []bool
}

func newBlockedFIB(inst *srp.Instance, sol *srp.Solution, aclPermit func(u, v topo.NodeID) bool) *blockedFIB {
	f := &blockedFIB{
		G:        inst.G,
		Dest:     inst.Dest,
		Next:     sol.Fwd,
		Blocked:  make(map[topo.Edge]bool),
		HasRoute: make([]bool, inst.G.NumNodes()),
	}
	for _, u := range inst.G.Nodes() {
		f.HasRoute[u] = sol.Label[u] != nil
		if aclPermit == nil {
			continue
		}
		for _, v := range sol.Fwd[u] {
			if !aclPermit(u, v) {
				f.Blocked[topo.Edge{U: u, V: v}] = true
			}
		}
	}
	return f
}

// usable reports whether traffic at u progresses to v.
func (f *blockedFIB) usable(u, v topo.NodeID) bool {
	return !f.Blocked[topo.Edge{U: u, V: v}]
}

// Reachable reports whether traffic from src can reach the destination
// along some forwarding path.
func (f *blockedFIB) Reachable(src topo.NodeID) bool {
	if src == f.Dest {
		return true
	}
	seen := make([]bool, f.G.NumNodes())
	stack := []topo.NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range f.Next[u] {
			if !f.usable(u, v) {
				continue
			}
			if v == f.Dest {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// ReachableSet returns, for every node, whether it reaches the destination.
// It runs one reverse traversal instead of per-source walks.
func (f *blockedFIB) ReachableSet() []bool {
	n := f.G.NumNodes()
	// Build reverse forwarding adjacency.
	rev := make([][]topo.NodeID, n)
	for u := 0; u < n; u++ {
		for _, v := range f.Next[u] {
			if f.usable(topo.NodeID(u), v) {
				rev[v] = append(rev[v], topo.NodeID(u))
			}
		}
	}
	out := make([]bool, n)
	out[f.Dest] = true
	stack := []topo.NodeID{f.Dest}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range rev[v] {
			if !out[u] {
				out[u] = true
				stack = append(stack, u)
			}
		}
	}
	return out
}

// HasLoop reports a forwarding loop anywhere in the FIB (e.g. from
// misconfigured static routes).
func (f *blockedFIB) HasLoop() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, f.G.NumNodes())
	var visit func(u topo.NodeID) bool
	visit = func(u topo.NodeID) bool {
		color[u] = gray
		for _, v := range f.Next[u] {
			if !f.usable(u, v) {
				continue
			}
			switch color[v] {
			case gray:
				return true
			case white:
				if visit(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for _, u := range f.G.Nodes() {
		if color[u] == white && visit(u) {
			return true
		}
	}
	return false
}

// BlackHoles returns the nodes where traffic can arrive but is dropped:
// they either have no route, or all their forwarding edges are ACL-blocked.
func (f *blockedFIB) BlackHoles() []topo.NodeID {
	var out []topo.NodeID
	for _, u := range f.G.Nodes() {
		if u == f.Dest {
			continue
		}
		usable := 0
		for _, v := range f.Next[u] {
			if f.usable(u, v) {
				usable++
			}
		}
		if usable == 0 {
			out = append(out, u)
		}
	}
	return out
}

// PathLengths returns the minimum and maximum forwarding path length from
// src to the destination, and ok=false if no path exists. Loops make the
// maximum unbounded; maxOK is false in that case.
func (f *blockedFIB) PathLengths(src topo.NodeID) (minLen, maxLen int, ok, maxOK bool) {
	type state struct {
		u     topo.NodeID
		depth int
	}
	// BFS for min.
	minLen = -1
	seen := make([]bool, f.G.NumNodes())
	queue := []state{{src, 0}}
	seen[src] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.u == f.Dest {
			minLen = s.depth
			break
		}
		for _, v := range f.Next[s.u] {
			if f.usable(s.u, v) && !seen[v] {
				seen[v] = true
				queue = append(queue, state{v, s.depth + 1})
			}
		}
	}
	if minLen < 0 {
		return 0, 0, false, false
	}
	// Longest path via DFS with cycle detection (forwarding DAGs are small).
	onPath := make([]bool, f.G.NumNodes())
	cyclic := false
	var dfs func(u topo.NodeID) int
	dfs = func(u topo.NodeID) int {
		if u == f.Dest {
			return 0
		}
		onPath[u] = true
		best := -1
		for _, v := range f.Next[u] {
			if !f.usable(u, v) {
				continue
			}
			if onPath[v] {
				cyclic = true
				continue
			}
			if d := dfs(v); d >= 0 && d+1 > best {
				best = d + 1
			}
		}
		onPath[u] = false
		return best
	}
	maxLen = dfs(src)
	return minLen, maxLen, true, !cyclic
}

// MultipathConsistent reports whether traffic from src is consistently
// delivered or consistently dropped: inconsistency means some forwarding
// path reaches the destination while another dies (paper §4.4, Multipath
// Consistency).
func (f *blockedFIB) MultipathConsistent(src topo.NodeID) bool {
	reach := f.ReachableSet()
	if src != f.Dest && !f.HasRoute[src] {
		return true // consistently dropped at the source
	}
	// Walk forward; inconsistency is reaching any node that (a) black-holes
	// or (b) cannot reach the destination, while src itself can.
	if !reach[src] {
		return !f.Reachable(src) // unreachable src is consistent iff nothing gets through
	}
	seen := make([]bool, f.G.NumNodes())
	stack := []topo.NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u != f.Dest && !reach[u] {
			return false
		}
		for _, v := range f.Next[u] {
			if f.usable(u, v) && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return true
}

// TestFIBMatchesBlockedReference: the FIB that filters blocked hops out
// once, and its one pass (Analyse), equal the reference's walks on random
// graphs with random forwarding edges (loops included) and random ACL
// verdicts, one node per graph having every hop blocked. The reference's
// longest path on a cyclic FIB is a longest simple path, which no packet is
// bound to, so the pass calls it unbounded there and is compared with it
// only where the reference's maxOK holds.
func TestFIBMatchesBlockedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261005))
	allBlocked, someBlocked := 0, 0
	delivering, unboundedDelivering, inconsistent := 0, 0, 0 // nodes
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(7)
		g := topo.New()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i))
		}
		for i := 1; i < n; i++ {
			g.AddLink(topo.NodeID(i), topo.NodeID(rng.Intn(i)))
		}
		for e := 0; e < n; e++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				g.AddLink(topo.NodeID(a), topo.NodeID(b))
			}
		}
		dest := topo.NodeID(rng.Intn(n))
		sol := &srp.Solution{Label: make([]srp.Attr, n), Fwd: make([][]topo.NodeID, n)}
		sol.Label[dest] = 0
		for u := 0; u < n; u++ {
			if topo.NodeID(u) == dest || rng.Intn(6) == 0 {
				continue
			}
			sol.Label[u] = 1
			succ := g.Succ(topo.NodeID(u))
			for _, k := range rng.Perm(len(succ))[:1+rng.Intn(min(2, len(succ)))] {
				sol.Fwd[u] = append(sol.Fwd[u], succ[k])
			}
		}
		deny := make([]bool, g.NumEdges())
		for i := range deny {
			deny[i] = rng.Intn(4) == 0
		}
		// One forwarding node loses every hop.
		for _, u := range rng.Perm(n) {
			if len(sol.Fwd[u]) == 0 {
				continue
			}
			for _, v := range sol.Fwd[u] {
				i, _ := g.EdgeIndex(topo.NodeID(u), v)
				deny[i] = true
			}
			allBlocked++
			break
		}
		permit := func(u, v topo.NodeID) bool {
			i, ok := g.EdgeIndex(u, v)
			if !ok {
				t.Fatalf("trial %d: verdict asked of (%d,%d), which is not an edge", trial, u, v)
			}
			return !deny[i]
		}
		fwdBefore := fmt.Sprint(sol.Fwd)
		inst := &srp.Instance{G: g, Dest: dest}
		got, want := New(inst, sol, permit), newBlockedFIB(inst, sol, permit)
		if fmt.Sprint(sol.Fwd) != fwdBefore {
			t.Fatalf("trial %d: New changed the solution's forwarding edges", trial)
		}
		for u := range sol.Fwd {
			kept := 0
			for _, v := range sol.Fwd[u] {
				if permit(topo.NodeID(u), v) {
					kept++
				}
			}
			if kept != len(got.Next[u]) {
				t.Fatalf("trial %d: node %d keeps %d hops, %d are permitted", trial, u, len(got.Next[u]), kept)
			}
			if kept < len(sol.Fwd[u]) {
				someBlocked++
			}
		}
		tag := fmt.Sprintf("trial %d (n=%d dest=%d fwd=%v deny=%v)", trial, n, dest, sol.Fwd, deny)
		if x, y := got.ReachableSet(), want.ReachableSet(); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: ReachableSet %v, reference %v", tag, x, y)
		}
		// Two draws for the waypoints a dropped comparison picked, so the
		// later trials build the graphs they always built.
		rng.Intn(n)
		rng.Intn(n)
		facts := got.Analyse()
		blackHoles, loop := []topo.NodeID(nil), false
		for u, x := range facts {
			if x.BlackHole {
				blackHoles = append(blackHoles, topo.NodeID(u))
			}
			loop = loop || x.Loop
		}
		if y := want.HasLoop(); loop != y {
			t.Fatalf("%s: a loop reachable from some node %v, HasLoop %v", tag, loop, y)
		}
		if y := want.BlackHoles(); !reflect.DeepEqual(blackHoles, y) {
			t.Fatalf("%s: black holes %v, reference %v", tag, blackHoles, y)
		}
		for _, src := range g.Nodes() {
			x := facts[src]
			mn, mx, ok, maxOK := want.PathLengths(src)
			if x.Reaches != ok || (ok && x.MinHops != int32(mn)) || (!ok && x.MinHops != -1) ||
				(x.MaxHops >= 0) != maxOK || (maxOK && x.MaxHops != int32(mx)) {
				t.Fatalf("%s: node %d facts %+v, reference PathLengths %d %d %v %v", tag, src, x, mn, mx, ok, maxOK)
			}
			if y := want.MultipathConsistent(src); x.Inconsistent == y {
				t.Fatalf("%s: node %d inconsistent %v, reference MultipathConsistent %v", tag, src, x.Inconsistent, y)
			}
			if ok {
				delivering++
				if !maxOK {
					unboundedDelivering++
				}
			}
			if x.Inconsistent {
				inconsistent++
			}
		}
	}
	if allBlocked < 150 || someBlocked < 200 {
		t.Fatalf("only %d graphs had a node with every hop blocked and %d nodes a blocked hop", allBlocked, someBlocked)
	}
	if unboundedDelivering == 0 || inconsistent == 0 {
		t.Fatalf("of %d delivering nodes, %d reach a loop and %d are inconsistent: a case is untested",
			delivering, unboundedDelivering, inconsistent)
	}
	t.Logf("%d delivering nodes, %d reach a loop, %d inconsistent", delivering, unboundedDelivering, inconsistent)
}
