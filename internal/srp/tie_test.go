package srp

import (
	"testing"

	"bonsai/internal/topo"
)

func TestTieRandomization(t *testing.T) {
	// Diamond: x ties between two equal-length paths via m1/m2; the label
	// (a hop count) is identical, so use a path-carrying protocol instead.
	g := topo.New()
	d, m1, m2, x := g.AddNode("d"), g.AddNode("m1"), g.AddNode("m2"), g.AddNode("x")
	g.AddLink(d, m1)
	g.AddLink(d, m2)
	g.AddLink(m1, x)
	g.AddLink(m2, x)
	p := &pathProto{}
	inst := &Instance{G: g, Dest: d, P: p}
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		sol, err := Solve(inst, WithOrder(seed))
		if err != nil {
			t.Fatal(err)
		}
		seen[attrKey(sol.Label[x])] = true
	}
	if len(seen) < 2 {
		t.Fatalf("tie randomization ineffective: %v", seen)
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

func attrKey(a Attr) string {
	if a == nil {
		return "nil"
	}
	s := ""
	for _, n := range a.([]topo.NodeID) {
		s += string(rune('a' + int(n)))
	}
	return s
}
