// Package srp defines the Stable Routing Problem (paper §3): a generic model
// of a routing protocol running over a topology toward a single destination.
// An SRP instance is (G, A, ad, ≺, trans); a solution labels every node with
// the route it selected such that no node prefers an offer from a neighbor
// over its chosen route. The package also provides a fixed-point solver that
// simulates protocol dynamics to find stable solutions, and a checker that
// validates the stability constraints of Figure 4 directly.
package srp

import (
	"errors"
	"fmt"

	"bonsai/internal/topo"
)

// Attr is a routing-message attribute. A nil Attr is ⊥ (no route). Concrete
// protocols define their own attribute types in internal/protocols.
type Attr interface{}

// Protocol supplies the attribute-dependent pieces of an SRP instance: the
// initial route ad, the comparison relation ≺ and the transfer function.
type Protocol interface {
	// Origin returns the initial attribute ad advertised by the destination.
	Origin() Attr
	// Compare orders two non-nil attributes: negative if a is preferred
	// (a ≺ b), positive if b is preferred, zero if equally good (a ≈ b).
	Compare(a, b Attr) int
	// Equal reports semantic equality of two attributes (nil == nil).
	Equal(a, b Attr) bool
	// Transfer maps the attribute a at neighbor v across the edge e=(u,v)
	// into the attribute received at u, or nil if the route is dropped. i is
	// e's position in the instance graph's Edges(): the key of every
	// per-edge table a protocol holds.
	// Implementations other than static routing must be non-spontaneous:
	// Transfer(i, e, nil) == nil.
	Transfer(i int, e topo.Edge, a Attr) Attr
}

// NodeMapper is implemented by protocols whose attributes embed topology
// node IDs (e.g. the BGP AS path). The attribute abstraction h of a network
// abstraction maps those IDs through the topology function f (paper §4.3:
// h((lp, tags, path)) = (lp, tags, f(path))).
type NodeMapper interface {
	MapNodes(a Attr, f func(topo.NodeID) topo.NodeID) Attr
}

// MapAttr applies the protocol's attribute abstraction if it has one, and
// returns a unchanged otherwise.
func MapAttr(p Protocol, a Attr, f func(topo.NodeID) topo.NodeID) Attr {
	if nm, ok := p.(NodeMapper); ok {
		return nm.MapNodes(a, f)
	}
	return a
}

// Instance is an SRP instance: a topology, a destination vertex and a
// protocol defining attributes, comparison and transfer.
type Instance struct {
	G    *topo.Graph
	Dest topo.NodeID
	P    Protocol
}

// transfer runs the protocol over the edge (u, v), v a member of Succ(u).
func (inst *Instance) transfer(u, v topo.NodeID, a Attr) Attr {
	i, _ := inst.G.EdgeIndex(u, v)
	return inst.P.Transfer(i, topo.Edge{U: u, V: v}, a)
}

// Solution is a stable labelling L : V → A⊥ along with the forwarding
// relation it induces (fwd_L of Figure 4).
type Solution struct {
	Label []Attr
	Fwd   [][]topo.NodeID // Fwd[u] = neighbors u forwards to, sorted
}

// ErrDiverged reports that the solver exceeded its sweep budget without
// reaching a stable solution (e.g. a BGP "naughty gadget").
var ErrDiverged = errors.New("srp: no stable solution found within sweep budget")

// Solve simulates the SRP to a stable solution using asynchronous
// (Gauss-Seidel) fixed-point iteration: nodes repeatedly re-select their best
// available route given neighbors' current labels until a full sweep changes
// nothing. It is the deterministic fast path for instances known to have one
// solution; Solutions enumerates the others. It returns ErrDiverged if no
// fixed point is reached within 2·|V|+64 sweeps.
func Solve(inst *Instance) (*Solution, error) {
	n := inst.G.NumNodes()
	label := make([]Attr, n)
	label[inst.Dest] = inst.P.Origin()
	for sweep := 0; sweep < 2*n+64; sweep++ {
		changed := false
		for _, u := range inst.G.Nodes() {
			if u == inst.Dest {
				continue
			}
			best := bestChoice(inst, label, u)
			if !inst.P.Equal(best, label[u]) {
				label[u] = best
				changed = true
			}
		}
		if !changed {
			sol := &Solution{Label: label, Fwd: forwarding(inst, label)}
			if err := inst.Check(sol); err != nil {
				return nil, fmt.Errorf("srp: fixed point failed stability check: %w", err)
			}
			return sol, nil
		}
	}
	return nil, ErrDiverged
}

// bestChoice returns a minimal attribute available to u from its neighbors,
// or nil when attrs_L(u) is empty. Tie handling is sticky: if u's current
// label is still among the minimal choices it is kept, so the iteration
// reaches quiescence; otherwise the first minimal offer in Succ order wins.
func bestChoice(inst *Instance, label []Attr, u topo.NodeID) Attr {
	var best Attr
	for _, v := range inst.G.Succ(u) {
		a := inst.transfer(u, v, label[v])
		if a == nil {
			continue
		}
		if best == nil || inst.P.Compare(a, best) < 0 {
			best = a
		} else if inst.P.Compare(a, best) == 0 && inst.P.Equal(a, label[u]) {
			best = a // sticky: quiescence under ties
		}
	}
	return best
}

// forwarding computes fwd_L: for each node the set of edges whose received
// attribute ties with the chosen label.
func forwarding(inst *Instance, label []Attr) [][]topo.NodeID {
	n := inst.G.NumNodes()
	fwd := make([][]topo.NodeID, n)
	for _, u := range inst.G.Nodes() {
		if label[u] == nil || u == inst.Dest {
			continue
		}
		for _, v := range inst.G.Succ(u) {
			a := inst.transfer(u, v, label[v])
			if a == nil {
				continue
			}
			if inst.P.Compare(a, label[u]) == 0 {
				fwd[u] = append(fwd[u], v)
			}
		}
	}
	return fwd
}

// Check validates that sol satisfies the SRP solution constraints of
// Figure 4: the destination holds ad, nodes with no offers hold ⊥, and every
// other node holds a minimal received attribute.
func (inst *Instance) Check(sol *Solution) error {
	if len(sol.Label) != inst.G.NumNodes() {
		return fmt.Errorf("label length %d != %d nodes", len(sol.Label), inst.G.NumNodes())
	}
	if !inst.P.Equal(sol.Label[inst.Dest], inst.P.Origin()) {
		return fmt.Errorf("destination %s not labelled with origin attribute",
			inst.G.Name(inst.Dest))
	}
	for _, u := range inst.G.Nodes() {
		if u == inst.Dest {
			continue
		}
		var attrs []Attr
		for _, v := range inst.G.Succ(u) {
			if a := inst.transfer(u, v, sol.Label[v]); a != nil {
				attrs = append(attrs, a)
			}
		}
		lu := sol.Label[u]
		if len(attrs) == 0 {
			if lu != nil {
				return fmt.Errorf("node %s has no offers but label %v", inst.G.Name(u), lu)
			}
			continue
		}
		if lu == nil {
			return fmt.Errorf("node %s has offers but label ⊥", inst.G.Name(u))
		}
		equalsSome := false
		for _, a := range attrs {
			if inst.P.Compare(a, lu) < 0 {
				return fmt.Errorf("node %s is unstable: offer %v preferred over label %v",
					inst.G.Name(u), a, lu)
			}
			if inst.P.Equal(a, lu) {
				equalsSome = true
			}
		}
		if !equalsSome {
			return fmt.Errorf("node %s label %v was never offered", inst.G.Name(u), lu)
		}
	}
	return nil
}
