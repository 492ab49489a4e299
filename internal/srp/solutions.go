package srp

import (
	"slices"

	"bonsai/internal/topo"
)

// Budget bounds the work of one Solutions call: Transfer evaluations and
// the Equal comparisons that merge tied offers, each branch taken counting
// one more. It is the one enumeration budget the engine answers a class
// under.
const Budget = 1 << 18

// Bounded is implemented by protocols that can bound what an edge carries.
// Bound(i, e) returns floor, an attribute no worse (Compare <= 0) than
// anything Transfer(i, e, ·) returns, nil when it returns nothing; and
// rises, true when Transfer(i, e, a) is nil or worse than a (Compare > 0)
// for every non-nil a, and nil for a nil a. It is a hint: Solutions decides
// the same sets without it, given budget enough.
type Bounded interface {
	Bound(i int, e topo.Edge) (floor Attr, rises bool)
}

// Solutions enumerates the stable solutions of inst, one per behaviour: two
// labellings count as one solution when every router holds a label of the
// same rank (Compare == 0), or ⊥ in both, and forwards to the same
// neighbours, which is everything the data plane and the paper's
// bisimulation (Theorem 4.5) look at. Every solution returned passes
// inst.Check. complete reports that sols is the whole set: it is false when
// the budget ran out, or when the search met a case it does not decide
// (below); sols then holds what was found.
//
// The search works outward from the destination. It assigns routers their
// label up to ties: an assigned router holds the Equal-distinct offers of
// one rank it may pick from. Each step takes the router with the best offer
// from assigned neighbours and branches: the router picks one of the offers
// of that rank it has now (assign), or its label is none of them and comes
// from a router assigned later (defer). Every solution follows one branch at
// every step; two branches that meet one behaviour count it once. A branch
// dies as soon as an assigned router is offered something better than its
// label, or a deferred one can no longer be offered what it waits for. A
// router no route can reach holds ⊥. Deferring is pointless for a router no better or
// equal offer can still reach, which the Bounded hint proves: then, as in
// Dijkstra's algorithm, the best offer is final.
//
// Ties are not branched on while they are invisible: an assigned router's
// offers are followed as a set only while every label in the set transfers
// to offers alike at each neighbour (of one rank, or all dropped; against an
// assigned neighbour's rank, only better, tied or neither matters). When a
// tie does matter (an attribute filter, or loop prevention toward a router
// the offer could still win), or a spontaneous offer (a static route) comes
// from a router whose own label is still open, the search stops and reports
// the set incomplete.
func Solutions(inst *Instance, budget int) (sols []*Solution, complete bool) {
	e := newEnumerator(inst, budget)
	e.search()
	return e.sols, !e.cut
}

const (
	free uint8 = iota
	deferred
	assigned
)

type enumerator struct {
	inst   *Instance
	n      int
	edges  []topo.Edge
	in     [][]int32 // in[v]: the edges (u, v) along which v offers to u
	floor  []Attr    // per edge: Bounded's floor; nil without the hint
	rising []bool    // per edge: Bounded's rises
	state  []uint8
	set    [][]Attr  // assigned: Equal-distinct labels of one rank; {nil} is ⊥
	bound  []Attr    // deferred: the rank the final label must match or beat
	excl   [][]Attr  // deferred: the offers of that rank it passed over
	via    [][]int32 // assigned: the edges its labels came over
	order  []topo.NodeID
	out    [][]Attr // out[i]: the non-nil offers over edge i from its assigned V
	mark   []bool   // scratch for mayImprove and bottom
	queue  []topo.NodeID
	undo   []func()
	work   int
	cut    bool
	sols   []*Solution
}

func newEnumerator(inst *Instance, budget int) *enumerator {
	n := inst.G.NumNodes()
	edges := inst.G.Edges()
	e := &enumerator{
		inst: inst, n: n, edges: edges, work: budget,
		in:    make([][]int32, n),
		state: make([]uint8, n),
		set:   make([][]Attr, n),
		bound: make([]Attr, n),
		excl:  make([][]Attr, n),
		via:   make([][]int32, n),
		out:   make([][]Attr, len(edges)),
		mark:  make([]bool, n),
	}
	for i, ed := range edges {
		e.in[ed.V] = append(e.in[ed.V], int32(i))
	}
	if b, ok := inst.P.(Bounded); ok {
		e.floor, e.rising = make([]Attr, len(edges)), make([]bool, len(edges))
		for i, ed := range edges {
			e.floor[i], e.rising[i] = b.Bound(i, ed)
		}
	}
	return e
}

// spend charges k units of work and reports whether the budget still holds.
func (e *enumerator) spend(k int) bool {
	e.work -= k
	if e.work < 0 {
		e.cut = true
	}
	return !e.cut
}

func (e *enumerator) search() {
	d := e.inst.Dest
	e.state[d], e.set[d] = assigned, []Attr{e.inst.P.Origin()}
	e.order = append(e.order, d)
	if e.spread(d) {
		e.step()
	}
}

// step takes one branching decision and recurses; it returns with the state
// as it found it.
func (e *enumerator) step() {
	if !e.spend(1) {
		return
	}
	u, best, ties := e.candidate()
	if u < 0 {
		e.settle()
		return
	}
	prevState, prevBound, prevExcl := e.state[u], e.bound[u], e.excl[u]
	// Assign: u picks one of these offers.
	var labels []Attr
	for _, i := range ties {
		labels = e.union(labels, e.usable(u, i))
	}
	e.assign([]topo.NodeID{u}, [][]Attr{labels}, ties)
	e.state[u] = prevState
	if e.cut || !e.mayImprove(u, best) {
		return
	}
	// Defer: u's final label is none of these, and comes from a router
	// assigned later: of their rank, or better.
	excl := labels
	if prevState == deferred && e.inst.P.Compare(best, prevBound) == 0 {
		excl = e.union(slices.Clone(prevExcl), labels)
	}
	e.state[u], e.bound[u], e.excl[u] = deferred, best, excl
	e.step()
	e.state[u], e.bound[u], e.excl[u] = prevState, prevBound, prevExcl
}

// assign gives each router us[k] the labels sets[k] (its offers came over
// the edges via; ⊥ has none), searches on, and undoes it. The caller
// restores the routers' previous state.
func (e *enumerator) assign(us []topo.NodeID, sets [][]Attr, via []int32) {
	mark := len(e.undo)
	for k, u := range us {
		e.state[u], e.set[u], e.via[u] = assigned, sets[k], via
		e.order = append(e.order, u)
	}
	alive := true
	for _, u := range us {
		if alive = e.spread(u); !alive {
			break
		}
	}
	if alive {
		e.step()
	}
	e.rollback(mark)
	for _, u := range us {
		e.set[u] = nil
	}
	e.order = e.order[:len(e.order)-len(us)]
}

// mayImprove reports whether a router assigned later can still offer u
// something as good as best, the least offer any unassigned router has.
// That needs an unassigned neighbour and, under the Bounded hint, a chain of
// unassigned routers to u whose edges may each carry something as good as
// best, starting at an edge that does not rise: along rising edges alone,
// every route an unassigned router gets is worse than best, and gets worse
// again on its way to u.
func (e *enumerator) mayImprove(u topo.NodeID, best Attr) bool {
	if !slices.ContainsFunc(e.inst.G.Succ(u), func(v topo.NodeID) bool { return e.state[v] != assigned }) {
		return false
	}
	if e.floor == nil {
		return true
	}
	within := func(i int) bool { return e.floor[i] != nil && e.inst.P.Compare(e.floor[i], best) <= 0 }
	e.spreadMark(func(i int, ed topo.Edge) bool {
		return !e.rising[i] && e.state[ed.U] != assigned && e.state[ed.V] != assigned && within(i)
	}, within)
	return e.mark[u]
}

// spreadMark marks the unassigned tails of the edges seed accepts, and every
// unassigned router a marked one offers to over an edge pass accepts.
func (e *enumerator) spreadMark(seed func(i int, ed topo.Edge) bool, pass func(i int) bool) {
	clear(e.mark)
	e.queue = e.queue[:0]
	for i, ed := range e.edges {
		if !e.mark[ed.U] && seed(i, ed) {
			e.mark[ed.U] = true
			e.queue = append(e.queue, ed.U)
		}
	}
	for len(e.queue) > 0 {
		x := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		for _, i := range e.in[x] {
			if y := e.edges[i].U; e.state[y] != assigned && !e.mark[y] && pass(int(i)) {
				e.mark[y] = true
				e.queue = append(e.queue, y)
			}
		}
	}
}

// usable returns the offers over edge i to u that u may still take: all of
// them when u is free; when u is deferred, those better than its bound, or
// of its rank and none of the offers it passed over.
func (e *enumerator) usable(u topo.NodeID, i int32) []Attr {
	offers := e.out[i]
	if e.state[u] != deferred || len(offers) == 0 {
		return offers
	}
	switch c := e.inst.P.Compare(offers[0], e.bound[u]); {
	case c < 0:
		return offers
	case c > 0:
		return nil
	}
	var keep []Attr
	for _, a := range offers {
		if !slices.ContainsFunc(e.excl[u], func(b Attr) bool { return e.inst.P.Equal(a, b) }) {
			keep = append(keep, a)
		}
	}
	return keep
}

// candidate returns the free or deferred router with the best offer it may
// take from its assigned neighbours, lowest index first among equals, with
// that offer and the edges carrying offers of its rank; -1 when no router
// has one.
func (e *enumerator) candidate() (topo.NodeID, Attr, []int32) {
	p := e.inst.P
	bu, best := topo.NodeID(-1), Attr(nil)
	for u := range topo.NodeID(e.n) {
		if e.state[u] == assigned {
			continue
		}
		lo, hi := e.inst.G.OutEdges(u)
		for i := int32(lo); i < int32(hi); i++ {
			if offers := e.usable(u, i); len(offers) > 0 && (best == nil || p.Compare(offers[0], best) < 0) {
				bu, best = u, offers[0]
			}
		}
	}
	if bu < 0 {
		return -1, nil, nil
	}
	var ties []int32
	lo, hi := e.inst.G.OutEdges(bu)
	for i := int32(lo); i < int32(hi); i++ {
		if offers := e.usable(bu, i); len(offers) > 0 && p.Compare(offers[0], best) == 0 {
			ties = append(ties, i)
		}
	}
	return bu, best, ties
}

// union adds to set the members of add it does not hold (by Equal),
// charging the comparisons to the budget.
func (e *enumerator) union(set, add []Attr) []Attr {
	for _, a := range add {
		if !e.spend(len(set)) {
			return set
		}
		if !slices.ContainsFunc(set, func(b Attr) bool { return e.inst.P.Equal(a, b) }) {
			set = append(set, a)
		}
	}
	return set
}

// spread records the offers v's labels make to v's neighbours, and reports
// false when the branch dies: an assigned neighbour offered something better
// than its label, a tie that matters, or the budget.
func (e *enumerator) spread(v topo.NodeID) bool {
	p := e.inst.P
	for _, i := range e.in[v] {
		u := e.edges[i].U
		if u == e.inst.Dest {
			continue
		}
		if !e.spend(len(e.set[v])) {
			return false
		}
		var first Attr
		var offers []Attr
		for k, a := range e.set[v] {
			o := p.Transfer(int(i), e.edges[i], a)
			if k == 0 {
				first = o
			} else if !e.alike(u, o, first) {
				e.cut = true
				return false
			}
			if o != nil {
				offers = append(offers, o)
			}
		}
		if e.state[u] == assigned && e.class(u, first) < 0 {
			return false // u is not at its best offer
		}
		if len(offers) > 0 {
			prev := e.out[i]
			e.out[i] = offers
			e.undo = append(e.undo, func() { e.out[i] = prev })
		}
	}
	return true
}

// class places offer a against assigned router u's rank: -1 better, 0 a
// tie, 1 worse or dropped. Any offer is better than ⊥.
func (e *enumerator) class(u topo.NodeID, a Attr) int {
	switch {
	case a == nil:
		return 1
	case e.set[u][0] == nil:
		return -1
	}
	return min(max(e.inst.P.Compare(a, e.set[u][0]), -1), 1)
}

// alike reports whether two offers to u are interchangeable for the search:
// of one class against u's rank when u is assigned; otherwise both dropped,
// or of one rank, since u still compares them with offers to come.
func (e *enumerator) alike(u topo.NodeID, a, b Attr) bool {
	if e.state[u] == assigned {
		return e.class(u, a) == e.class(u, b)
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return e.inst.P.Compare(a, b) == 0
}

func (e *enumerator) rollback(mark int) {
	for len(e.undo) > mark {
		e.undo[len(e.undo)-1]()
		e.undo = e.undo[:len(e.undo)-1]
	}
}

// settle runs when no router has an offer to take. An unassigned router
// can then still get a label only from a spontaneous offer (a static route)
// of an unassigned neighbour, or from a router that gets one; a deferred
// router only over an edge whose floor matches its bound. A free router no
// such chain reaches holds ⊥, and its own spontaneous offers may make new
// candidates, so the search goes on; a deferred one no such chain reaches
// failed. With neither left the branch is a solution family, and one
// labelling of it is kept; with only chains among open routers left, the
// search cannot tell and gives up on the branch.
func (e *enumerator) settle() {
	reaches := func(i int) bool {
		u := e.edges[i].U
		return e.floor == nil || e.floor[i] != nil && (e.state[u] != deferred || e.inst.P.Compare(e.floor[i], e.bound[u]) <= 0)
	}
	e.spreadMark(func(i int, ed topo.Edge) bool {
		return e.state[ed.U] != assigned && e.state[ed.V] != assigned && reaches(i) && e.inst.P.Transfer(i, ed, nil) != nil
	}, reaches)
	var none []topo.NodeID
	open := false
	for u := range topo.NodeID(e.n) {
		switch {
		case e.state[u] == free && !e.mark[u]:
			none = append(none, u)
		case e.state[u] == deferred && !e.mark[u]:
			return
		case e.state[u] != assigned:
			open = true
		}
	}
	if len(none) > 0 {
		bottoms := make([][]Attr, len(none))
		for k := range bottoms {
			bottoms[k] = []Attr{nil}
		}
		e.assign(none, bottoms, nil)
		for _, u := range none {
			e.state[u] = free
		}
		return
	}
	if open {
		e.cut = true // spontaneous offers among open routers
		return
	}
	label := make([]Attr, e.n)
	label[e.inst.Dest] = e.inst.P.Origin()
	if !e.pick(1, label) {
		e.cut = true // the family is not what the search assumed
		return
	}
	sol := &Solution{Label: label, Fwd: forwarding(e.inst, label)}
	if e.inst.Check(sol) != nil {
		e.cut = true
		return
	}
	// Branches split on where labels come from, so two of them can meet
	// one behaviour.
	if !slices.ContainsFunc(e.sols, func(o *Solution) bool { return e.same(o, sol) }) {
		e.sols = append(e.sols, sol)
	}
}

// pick labels the assigned routers from order[k] on, each with a member of
// its set that one of its edges delivers from the labels picked before it.
func (e *enumerator) pick(k int, label []Attr) bool {
	if k == len(e.order) {
		return true
	}
	u := e.order[k]
	if e.set[u][0] == nil {
		label[u] = nil
		return e.pick(k+1, label)
	}
	for _, i := range e.via[u] {
		if !e.spend(1) {
			return false
		}
		a := e.inst.P.Transfer(int(i), e.edges[i], label[e.edges[i].V])
		if a != nil && slices.ContainsFunc(e.set[u], func(b Attr) bool { return e.inst.P.Equal(a, b) }) {
			label[u] = a
			if e.pick(k+1, label) {
				return true
			}
		}
	}
	label[u] = nil
	return false
}

// same reports whether two solutions behave alike: every router's label of
// one rank (or both ⊥) and the same forwarding set.
func (e *enumerator) same(a, b *Solution) bool {
	for u := range a.Label {
		x, y := a.Label[u], b.Label[u]
		if (x == nil) != (y == nil) || x != nil && e.inst.P.Compare(x, y) != 0 || !slices.Equal(a.Fwd[u], b.Fwd[u]) {
			return false
		}
	}
	return true
}
