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
	"math/rand"

	"bonsai/internal/topo"
)

// Attr is a routing-message attribute. A nil Attr is ⊥ (no route). Concrete
// protocols define their own attribute types in internal/protocols.
type Attr interface{}

// Protocol supplies the attribute-dependent pieces of an SRP instance: the
// initial route ad, the comparison relation ≺ and the transfer function.
type Protocol interface {
	// Name identifies the protocol (used in diagnostics only).
	Name() string
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

type options struct {
	seed      int64
	useSeed   bool
	maxSweeps int
}

// Option configures Solve.
type Option func(*options)

// WithOrder makes the solver activate nodes in a pseudo-random order derived
// from seed. Different orders can reach different stable solutions of the
// same SRP (paper Figure 2 has several).
func WithOrder(seed int64) Option {
	return func(o *options) { o.seed = seed; o.useSeed = true }
}

// WithMaxSweeps overrides the divergence bound (default 2·|V|+64 sweeps).
func WithMaxSweeps(n int) Option {
	return func(o *options) { o.maxSweeps = n }
}

// Solve simulates the SRP to a stable solution using asynchronous
// (Gauss-Seidel) fixed-point iteration: nodes repeatedly re-select their best
// available route given neighbors' current labels until a full sweep changes
// nothing. It returns ErrDiverged if no fixed point is reached within the
// sweep budget.
func Solve(inst *Instance, opts ...Option) (*Solution, error) {
	o := options{maxSweeps: 2*inst.G.NumNodes() + 64}
	for _, f := range opts {
		f(&o)
	}
	n := inst.G.NumNodes()
	order := make([]topo.NodeID, 0, n)
	for _, u := range inst.G.Nodes() {
		if u != inst.Dest {
			order = append(order, u)
		}
	}
	if o.useSeed {
		rng := rand.New(rand.NewSource(o.seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	label := make([]Attr, n)
	label[inst.Dest] = inst.P.Origin()

	// With a seeded order, ties between equally-good attributes are also
	// broken pseudo-randomly, so SolveAll can discover every labelling a
	// real network might converge to (the SRP definition allows any minimal
	// attribute to be chosen).
	var tieRng *rand.Rand
	if o.useSeed {
		tieRng = rand.New(rand.NewSource(o.seed ^ 0x5bd1e995))
	}

	for sweep := 0; sweep < o.maxSweeps; sweep++ {
		changed := false
		for _, u := range order {
			best := bestChoice(inst, label, u, tieRng)
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
// reaches quiescence; otherwise, with a non-nil tieRng, a random minimal
// choice is taken (reservoir sampling), letting different seeds converge to
// different labellings of tied SRPs — the "any minimal value can be chosen"
// freedom of the solution definition.
func bestChoice(inst *Instance, label []Attr, u topo.NodeID, tieRng *rand.Rand) Attr {
	// Pass 1: evaluate each neighbor's offer once, keep the non-nil ones in
	// neighbor order, and find the minimal rank.
	var buf [8]Attr
	offers := buf[:0]
	var best Attr
	for _, v := range inst.G.Succ(u) {
		a := inst.transfer(u, v, label[v])
		if a == nil {
			continue
		}
		offers = append(offers, a)
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
	for _, a := range offers {
		if inst.P.Compare(a, best) != 0 {
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

// SolveAll attempts numSeeds randomized activation orders (plus the
// deterministic order) and returns the distinct stable solutions found,
// keyed by forwarding behavior. It is used to explore SRPs with multiple
// solutions, such as the BGP gadget of Figure 2.
func SolveAll(inst *Instance, numSeeds int) []*Solution {
	var out []*Solution
	seen := make(map[string]bool)
	try := func(opts ...Option) {
		sol, err := Solve(inst, opts...)
		if err != nil {
			return
		}
		k := fingerprint(sol)
		if !seen[k] {
			seen[k] = true
			out = append(out, sol)
		}
	}
	try()
	for s := 0; s < numSeeds; s++ {
		try(WithOrder(int64(s)))
	}
	return out
}

func fingerprint(sol *Solution) string {
	b := make([]byte, 0, 64)
	for u, nbrs := range sol.Fwd {
		b = append(b, byte(u), ':')
		for _, v := range nbrs {
			b = append(b, byte(v>>8), byte(v))
		}
		b = append(b, ';')
	}
	return string(b)
}
