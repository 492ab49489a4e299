package srp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/topo"
)

// prefAttr is prefProto's attribute: a preference level and a path.
type prefAttr struct {
	lp   int
	path []topo.NodeID
}

// prefProto is BGP reduced to two preference levels: the receiver's import
// on edge i sets the level (2 where hi[i], else 1), higher wins, then the
// shorter path (unless flat, which ties every path of a level), and a route
// is dropped at a router already on its path. It expresses Griffin's
// DISAGREE and BAD GADGET; flat makes ties with different content common.
type prefProto struct {
	hi   []bool
	flat bool
}

func (prefProto) Origin() Attr { return prefAttr{lp: 1} }
func (p prefProto) Compare(x, y Attr) int {
	a, b := x.(prefAttr), y.(prefAttr)
	if a.lp != b.lp || p.flat {
		return b.lp - a.lp
	}
	return len(a.path) - len(b.path)
}
func (prefProto) Equal(x, y Attr) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	a, b := x.(prefAttr), y.(prefAttr)
	return a.lp == b.lp && slices.Equal(a.path, b.path)
}
func (p prefProto) Transfer(i int, e topo.Edge, x Attr) Attr {
	if x == nil {
		return nil
	}
	a := x.(prefAttr)
	if slices.Contains(a.path, e.U) {
		return nil
	}
	lp := 1
	if p.hi[i] {
		lp = 2
	}
	return prefAttr{lp: lp, path: append([]topo.NodeID{e.V}, a.path...)}
}

// Bound: a route arrives at the edge's level with a path of at least one
// hop; a level-1 import never beats a route's level (every route holds 1
// or 2), and the path grows.
func (p prefProto) Bound(i int, e topo.Edge) (Attr, bool) {
	if p.hi[i] {
		return prefAttr{lp: 2, path: []topo.NodeID{e.V}}, false
	}
	return prefAttr{lp: 1, path: []topo.NodeID{e.V}}, !p.flat
}

// hidden hides a protocol's Bounded hint.
type hidden struct{ Protocol }

// rankKey renders a's rank under the test protocol p, so behaviours
// compare across solutions.
func rankKey(p Protocol, a Attr) string {
	if h, ok := p.(hidden); ok {
		p = h.Protocol
	}
	switch v := a.(type) {
	case nil:
		return "-"
	case int:
		return fmt.Sprint(v)
	case []topo.NodeID:
		return fmt.Sprint(len(v))
	case prefAttr:
		if p.(prefProto).flat {
			return fmt.Sprint(v.lp)
		}
		return fmt.Sprint(v.lp, "/", len(v.path))
	}
	panic(fmt.Sprintf("rankKey: %T", a))
}

// behaviourKey is what Solutions counts a solution by: every router's rank
// and forwarding set.
func behaviourKey(p Protocol, s *Solution) string {
	var b strings.Builder
	for u := range s.Label {
		fmt.Fprint(&b, rankKey(p, s.Label[u]), s.Fwd[u], ";")
	}
	return b.String()
}

func sameBehaviour(p Protocol, a, b *Solution) bool {
	return behaviourKey(p, a) == behaviourKey(p, b)
}

// bruteForce returns the behaviours of every labelling that passes
// inst.Check, each label drawn from {⊥} and the attributes the origin
// reaches u with along simple paths (every stable label of these protocols
// derives along one: each hop lengthens it). Labellings are built in node
// order, rejecting one as soon as a router whose neighbours are all labelled
// is not at its best offer; ok is false when the product is too large.
func bruteForce(inst *Instance) (keys map[string]bool, ok bool) {
	n := inst.G.NumNodes()
	cands := make([][]Attr, n)
	var walk func(u topo.NodeID, a Attr, on []bool)
	walk = func(u topo.NodeID, a Attr, on []bool) {
		if !slices.ContainsFunc(cands[u], func(b Attr) bool { return inst.P.Equal(a, b) }) {
			cands[u] = append(cands[u], a)
		}
		on[u] = true
		for _, e := range inst.G.Edges() {
			if e.V == u && !on[e.U] {
				if b := inst.transfer(e.U, u, a); b != nil {
					walk(e.U, b, on)
				}
			}
		}
		on[u] = false
	}
	walk(inst.Dest, inst.P.Origin(), make([]bool, n))
	product := 1
	for u := range cands {
		if topo.NodeID(u) != inst.Dest {
			cands[u] = append(cands[u], nil)
			product *= len(cands[u])
		}
	}
	if product > 2_000_000 {
		return nil, false
	}
	keys = make(map[string]bool)
	label := make([]Attr, n)
	set := make([]bool, n)
	// stable is Check's condition on one router, decided once its
	// neighbours are labelled.
	stable := func(u topo.NodeID) bool {
		var offers []Attr
		for _, v := range inst.G.Succ(u) {
			if !set[v] {
				return true
			}
			if a := inst.transfer(u, v, label[v]); a != nil {
				offers = append(offers, a)
			}
		}
		if u == inst.Dest || len(offers) == 0 {
			return u == inst.Dest || label[u] == nil
		}
		return label[u] != nil &&
			!slices.ContainsFunc(offers, func(a Attr) bool { return inst.P.Compare(a, label[u]) < 0 }) &&
			slices.ContainsFunc(offers, func(a Attr) bool { return inst.P.Equal(a, label[u]) })
	}
	var fill func(u int)
	fill = func(u int) {
		if u == n {
			sol := &Solution{Label: slices.Clone(label), Fwd: forwarding(inst, label)}
			if inst.Check(sol) == nil {
				keys[behaviourKey(inst.P, sol)] = true
			}
			return
		}
		opts := cands[u]
		if topo.NodeID(u) == inst.Dest {
			opts = []Attr{inst.P.Origin()}
		}
		for _, a := range opts {
			label[u], set[u] = a, true
			good := true
			for w := 0; w <= u && good; w++ {
				good = stable(topo.NodeID(w))
			}
			if good {
				fill(u + 1)
			}
			set[u] = false
		}
	}
	fill(0)
	return keys, true
}

// TestSolutionsMatchBruteForce: on random graphs of at most six routers,
// under shortest paths (with and without a hop limit), path-carrying ties,
// a protocol with no stable solution on a cycle and the two-level
// preference protocol, each with its Bounded hint and without, a complete Solutions is exactly the set of
// behaviours of the labellings that pass inst.Check, each solution counted
// once. Incomplete runs are counted and must stay a minority.
func TestSolutionsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	checked, incomplete, multi, none := 0, 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(5)
		g := topo.New()
		for i := 0; i < n; i++ {
			g.AddNode(string(rune('a' + i)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.AddLink(topo.NodeID(i), topo.NodeID(j))
				}
			}
		}
		hi := make([]bool, g.NumEdges())
		for i := range hi {
			hi[i] = rng.Intn(3) == 0
		}
		dest := topo.NodeID(rng.Intn(n))
		for _, p := range []Protocol{&hopProto{}, &hopProto{limit: 2}, pathProto{}, growProto{}, prefProto{hi: hi},
			prefProto{hi: hi, flat: true}, hidden{&hopProto{}}, hidden{pathProto{}}, hidden{prefProto{hi: hi}}} {
			inst := &Instance{G: g, Dest: dest, P: p}
			want, ok := bruteForce(inst)
			if !ok {
				continue
			}
			sols, complete := Solutions(inst, Budget)
			if !complete {
				incomplete++
				continue
			}
			checked++
			got := make(map[string]bool)
			for _, s := range sols {
				if err := inst.Check(s); err != nil {
					t.Fatalf("trial %d %T: a returned solution fails Check: %v", trial, p, err)
				}
				k := behaviourKey(p, s)
				if got[k] {
					t.Fatalf("trial %d %T: solution %s counted twice", trial, p, k)
				}
				got[k] = true
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("trial %d %T on %v dest %d: Solutions misses %s (found %v)", trial, p, g, dest, k, got)
				}
			}
			for k := range got {
				if !want[k] {
					t.Fatalf("trial %d %T: Solutions invents %s", trial, p, k)
				}
			}
			switch {
			case len(want) > 1:
				multi++
			case len(want) == 0:
				none++
			}
		}
	}
	t.Logf("%d instances compared (%d with several solutions, %d with none), %d incomplete", checked, multi, none, incomplete)
	if multi == 0 || none == 0 || incomplete*10 > checked {
		t.Fatalf("%d compared, %d multi, %d none, %d incomplete: the sample distinguishes too little", checked, multi, none, incomplete)
	}
}
