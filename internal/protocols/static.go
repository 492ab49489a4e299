package protocols

import (
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// Static models static routing (§3.2, Figure 6). The attribute set is the
// single value true; the comparison relation is empty; and the transfer
// function ignores the neighbor's attribute entirely, returning true exactly
// when a static route is configured on the edge. Static routing is
// deliberately spontaneous (Transfer(e, ⊥) may be non-⊥), which is why the
// paper proves its fwd-equivalence separately (Theorem 4.3): static routes
// can form loops.
type Static struct {
	// Routes marks the SRP edges (u, v) on which u has a static route for
	// the destination via v.
	Routes []bool
}

// Origin implements srp.Protocol.
func (p *Static) Origin() srp.Attr { return true }

// Compare implements srp.Protocol: the order is empty, all attributes tie.
func (p *Static) Compare(a, b srp.Attr) int { return 0 }

// Equal implements srp.Protocol.
func (p *Static) Equal(a, b srp.Attr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.(bool) == b.(bool)
}

// Transfer implements srp.Protocol. Note it does not consult a.
func (p *Static) Transfer(i int, e topo.Edge, a srp.Attr) srp.Attr {
	if marked(p.Routes, i) {
		return true
	}
	return nil
}

// MapNodes implements srp.NodeMapper.
func (p *Static) MapNodes(a srp.Attr, f func(topo.NodeID) topo.NodeID) srp.Attr { return a }
