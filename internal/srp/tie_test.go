package srp

import (
	"testing"

	"bonsai/internal/topo"
)

// TestSolutionsCollapseInvisibleTies: on a diamond x ties between two
// equal-length paths, distinct attributes under a path-carrying protocol.
// Nothing downstream tells them apart, so they are one solution, forwarding
// to both middles.
func TestSolutionsCollapseInvisibleTies(t *testing.T) {
	g := topo.New()
	d, m1, m2, x := g.AddNode("d"), g.AddNode("m1"), g.AddNode("m2"), g.AddNode("x")
	g.AddLink(d, m1)
	g.AddLink(d, m2)
	g.AddLink(m1, x)
	g.AddLink(m2, x)
	inst := &Instance{G: g, Dest: d, P: pathProto{}}
	sols, complete := Solutions(inst, Budget)
	if !complete || len(sols) != 1 {
		t.Fatalf("%d solutions, complete %v; want 1, complete", len(sols), complete)
	}
	if fwd := sols[0].Fwd[x]; len(fwd) != 2 {
		t.Fatalf("x forwards to %v, want both middles", fwd)
	}
}

type pathProto struct{}

func (pathProto) Origin() Attr { return []topo.NodeID{} }
func (pathProto) Compare(a, b Attr) int {
	return len(a.([]topo.NodeID)) - len(b.([]topo.NodeID))
}
func (pathProto) Equal(a, b Attr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	x, y := a.([]topo.NodeID), b.([]topo.NodeID)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Bound: a path has at least the sender on it, and every hop lengthens it.
func (pathProto) Bound(_ int, e topo.Edge) (Attr, bool) { return []topo.NodeID{e.V}, true }

func (pathProto) Transfer(_ int, e topo.Edge, a Attr) Attr {
	if a == nil {
		return nil
	}
	p := a.([]topo.NodeID)
	out := make([]topo.NodeID, 0, len(p)+1)
	out = append(out, e.V)
	out = append(out, p...)
	return out
}
