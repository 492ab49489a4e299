// Package dataplane derives forwarding state from SRP solutions and checks
// the path properties that CP-equivalence preserves (paper §4.4):
// reachability, path length, black holes, multipath consistency,
// waypointing and routing loops. ACLs drop traffic on edges without
// affecting routing, mirroring §6.
package dataplane

import (
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// FIB is the forwarding state of one destination class: for every node the
// forwarding edges chosen by the control plane, with ACL verdicts applied to
// traffic (not to routes).
type FIB struct {
	G    *topo.Graph
	Dest topo.NodeID
	// Next[u] lists the next hops traffic at u progresses to (possibly
	// several under multipath): the control plane's forwarding edges less
	// those whose ACL drops traffic to this destination.
	Next [][]topo.NodeID
	// HasRoute[u] reports a non-⊥ control plane label at u.
	HasRoute []bool
}

// New builds a FIB from a solved SRP. aclPermit reports whether traffic may
// be forwarded across edge (u, v); nil permits everything.
func New(inst *srp.Instance, sol *srp.Solution, aclPermit func(u, v topo.NodeID) bool) *FIB {
	f := &FIB{
		G:        inst.G,
		Dest:     inst.Dest,
		Next:     sol.Fwd,
		HasRoute: make([]bool, inst.G.NumNodes()),
	}
	for u, l := range sol.Label {
		f.HasRoute[u] = l != nil
	}
	if aclPermit != nil {
		// The permitted hops of every node, carved from one array; the
		// solution keeps its own lists.
		total := 0
		for _, hops := range sol.Fwd {
			total += len(hops)
		}
		buf := make([]topo.NodeID, 0, total)
		f.Next = make([][]topo.NodeID, len(sol.Fwd))
		for u, hops := range sol.Fwd {
			start := len(buf)
			for _, v := range hops {
				if aclPermit(topo.NodeID(u), v) {
					buf = append(buf, v)
				}
			}
			f.Next[u] = buf[start:len(buf):len(buf)]
		}
	}
	return f
}

// Reachable reports whether traffic from src can reach the destination
// along some forwarding path.
func (f *FIB) Reachable(src topo.NodeID) bool {
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
func (f *FIB) ReachableSet() []bool {
	n := f.G.NumNodes()
	// Build reverse forwarding adjacency.
	rev := make([][]topo.NodeID, n)
	for u := 0; u < n; u++ {
		for _, v := range f.Next[u] {
			rev[v] = append(rev[v], topo.NodeID(u))
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
func (f *FIB) HasLoop() bool {
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
func (f *FIB) BlackHoles() []topo.NodeID {
	var out []topo.NodeID
	for _, u := range f.G.Nodes() {
		if u == f.Dest {
			continue
		}
		if len(f.Next[u]) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// PathLengths returns the minimum and maximum forwarding path length from
// src to the destination, and ok=false if no path exists. Loops make the
// maximum unbounded; maxOK is false in that case.
func (f *FIB) PathLengths(src topo.NodeID) (minLen, maxLen int, ok, maxOK bool) {
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
			if !seen[v] {
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
func (f *FIB) MultipathConsistent(src topo.NodeID) bool {
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
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return true
}

// Waypointed reports whether every forwarding path from src to the
// destination traverses at least one of the waypoints (paper §4.4).
func (f *FIB) Waypointed(src topo.NodeID, waypoints map[topo.NodeID]bool) bool {
	if !f.Reachable(src) {
		return true // vacuously: no path escapes the waypoints
	}
	if waypoints[src] || waypoints[f.Dest] {
		return true
	}
	// Is the destination reachable without entering a waypoint?
	seen := make([]bool, f.G.NumNodes())
	stack := []topo.NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range f.Next[u] {
			if waypoints[v] {
				continue
			}
			if v == f.Dest {
				return false
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return true
}
