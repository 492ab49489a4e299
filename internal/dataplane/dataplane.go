// Package dataplane derives forwarding state from SRP solutions and the
// path properties that CP-equivalence preserves (paper §4.4): reachability,
// path length, black holes, multipath consistency and routing loops, all
// in one pass over the forwarding graph (Analyse). ACLs drop traffic on
// edges without affecting routing, mirroring §6.
//
// Waypointing, the one §4.4 property left out, holds on a compressed
// network only when the waypoints are kept out of merged groups, and
// compression takes no such input: a waypoint merged with routers that are
// not waypoints would make the abstract answer wrong.
package dataplane

import (
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// FIB is the forwarding state of one destination class: for every node the
// forwarding edges chosen by the control plane, with ACL verdicts applied to
// traffic (not to routes).
type FIB struct {
	Dest topo.NodeID
	// Next[u] lists the next hops traffic at u progresses to (possibly
	// several under multipath): the control plane's forwarding edges less
	// those whose ACL drops traffic to this destination.
	Next [][]topo.NodeID
}

// New builds a FIB from a solved SRP. aclPermit reports whether traffic may
// be forwarded across edge (u, v); nil permits everything.
func New(inst *srp.Instance, sol *srp.Solution, aclPermit func(u, v topo.NodeID) bool) *FIB {
	f := &FIB{Dest: inst.Dest, Next: sol.Fwd}
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

// ReachableSet returns, for every node, whether it reaches the destination.
func (f *FIB) ReachableSet() []bool {
	out := make([]bool, len(f.Next))
	for u, x := range f.Analyse() {
		out[u] = x.Reaches
	}
	return out
}

// Facts is what a FIB says of the traffic one node sends toward the
// destination, over every forwarding path it may take.
type Facts struct {
	// MinHops and MaxHops are the fewest and the most hops of a forwarding
	// path that delivers; -1 when none does, and MaxHops is -1 too when a
	// loop is reachable (the paths then have no longest).
	MinHops, MaxHops int32
	// Reaches: some forwarding path delivers.
	Reaches bool
	// Loop: a forwarding loop can be reached short of the destination.
	Loop bool
	// BlackHole: the node has no permitted hop (the destination aside), so
	// traffic arriving there is dropped.
	BlackHole bool
	// Inconsistent: some forwarding path delivers and another does not
	// (multipath consistency).
	Inconsistent bool
}

// Analyse returns the Facts of every node in O(V+E): a reverse BFS from
// the destination for reach and the fewest hops, a backward propagation
// from the nodes that do not reach for multipath consistency, and one
// memoised depth-first walk for the most hops and the reachable loops.
func (f *FIB) Analyse() []Facts {
	out := make([]Facts, len(f.Next))
	for u := range out {
		out[u] = Facts{MinHops: -1, MaxHops: -1, BlackHole: topo.NodeID(u) != f.Dest && len(f.Next[u]) == 0}
	}
	rev := make([][]topo.NodeID, len(out)) // the permitted hops turned around
	for u, hops := range f.Next {
		for _, v := range hops {
			rev[v] = append(rev[v], topo.NodeID(u))
		}
	}
	out[f.Dest].MinHops, out[f.Dest].Reaches = 0, true
	queue := make([]topo.NodeID, 1, len(out))
	queue[0] = f.Dest
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range rev[v] {
			if !out[u].Reaches {
				out[u].MinHops, out[u].Reaches = out[v].MinHops+1, true
				queue = append(queue, u)
			}
		}
	}

	// Inconsistent: a node that reaches the destination and can also reach
	// one that does not. Propagate "can reach a dead end" backward.
	dead := make([]bool, len(out))
	queue = queue[:0]
	for u := range out {
		if !out[u].Reaches {
			dead[u] = true
			queue = append(queue, topo.NodeID(u))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range rev[v] {
			if !dead[u] {
				dead[u] = true
				queue = append(queue, u)
			}
		}
	}

	// The most hops and the reachable loops: a node reaches a loop when a
	// next hop is still on the walk's stack or reaches one itself; a node
	// that reaches none sees only finished next hops, whose longest paths
	// are final. The destination ends every path.
	const (
		unseen = iota
		onStack
		finished
	)
	state := make([]uint8, len(out))
	state[f.Dest], out[f.Dest].MaxHops = finished, 0
	var visit func(u topo.NodeID)
	visit = func(u topo.NodeID) {
		state[u] = onStack
		x := &out[u]
		for _, v := range f.Next[u] {
			if state[v] == unseen {
				visit(v)
			}
			if state[v] == onStack || out[v].Loop {
				x.Loop = true
			} else if h := out[v].MaxHops; h >= 0 && h+1 > x.MaxHops {
				x.MaxHops = h + 1
			}
		}
		if x.Loop {
			x.MaxHops = -1
		}
		state[u] = finished
	}
	for u := range out {
		if state[u] == unseen {
			visit(topo.NodeID(u))
		}
		out[u].Inconsistent = out[u].Reaches && dead[u]
	}
	return out
}
