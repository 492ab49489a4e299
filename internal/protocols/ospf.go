package protocols

import (
	"fmt"

	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// OSPFAttr is the OSPF attribute of §3.2: a path cost plus a flag recording
// whether the route has crossed an area boundary. Intra-area routes are
// preferred over inter-area routes regardless of cost.
type OSPFAttr struct {
	Cost      int
	InterArea bool
}

func (a OSPFAttr) String() string {
	if a.InterArea {
		return fmt.Sprintf("ospf(cost=%d,inter)", a.Cost)
	}
	return fmt.Sprintf("ospf(cost=%d)", a.Cost)
}

// OSPF models the link-state protocol: the transfer function adds the
// configured link cost, and crossing an inter-area edge sets the inter-area
// flag.
type OSPF struct {
	// Cost gives, per edge (u, v), the cost u pays to reach via v; nil
	// means every edge costs 1. Edges absent from the OSPF process entirely
	// should not be presented to Transfer.
	Cost []int32
	// CrossArea marks edges that cross an area boundary.
	CrossArea []bool
}

// Origin implements srp.Protocol.
func (p *OSPF) Origin() srp.Attr { return OSPFAttr{Cost: 0} }

// Compare implements srp.Protocol: intra-area first, then lower cost.
func (p *OSPF) Compare(x, y srp.Attr) int {
	a, b := x.(OSPFAttr), y.(OSPFAttr)
	if a.InterArea != b.InterArea {
		if a.InterArea {
			return 1
		}
		return -1
	}
	return a.Cost - b.Cost
}

// Equal implements srp.Protocol.
func (p *OSPF) Equal(x, y srp.Attr) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	return x.(OSPFAttr) == y.(OSPFAttr)
}

// Transfer implements srp.Protocol.
func (p *OSPF) Transfer(i int, e topo.Edge, x srp.Attr) srp.Attr {
	if x == nil {
		return nil
	}
	a := x.(OSPFAttr)
	cost := 1
	if p.Cost != nil {
		cost = int(p.Cost[i])
	}
	return OSPFAttr{Cost: a.Cost + cost, InterArea: a.InterArea || marked(p.CrossArea, i)}
}

// MapNodes implements srp.NodeMapper; OSPF attributes carry no node names.
func (p *OSPF) MapNodes(a srp.Attr, f func(topo.NodeID) topo.NodeID) srp.Attr { return a }
