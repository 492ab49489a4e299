package protocols

import (
	"fmt"

	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// RouteSource identifies which protocol produced a RIB entry.
type RouteSource int

// Route sources in increasing default administrative distance.
const (
	SrcNone      RouteSource = iota
	SrcConnected             // the destination's own prefix
	SrcStatic
	SrcBGP
	SrcOSPF
)

func (s RouteSource) String() string {
	switch s {
	case SrcConnected:
		return "connected"
	case SrcStatic:
		return "static"
	case SrcBGP:
		return "bgp"
	case SrcOSPF:
		return "ospf"
	default:
		return "none"
	}
}

// DefaultAD returns the conventional administrative distance of a source
// (Cisco defaults: connected 0, static 1, eBGP 20, OSPF 110).
func DefaultAD(s RouteSource) int {
	switch s {
	case SrcConnected:
		return 0
	case SrcStatic:
		return 1
	case SrcBGP:
		return 20
	case SrcOSPF:
		return 110
	default:
		return 255
	}
}

// MultiAttr is the product attribute of §6: per-protocol routes plus the
// main-RIB winner chosen by administrative distance
// (A = A_BGP × A_OSPF × A_RIB).
type MultiAttr struct {
	BGP    *BGPAttr
	OSPF   *OSPFAttr
	Static bool
	Best   RouteSource
}

func (a *MultiAttr) String() string {
	return fmt.Sprintf("multi(best=%v,bgp=%v,ospf=%v,static=%v)", a.Best, a.BGP, a.OSPF, a.Static)
}

// Multi runs BGP, OSPF and static routing side by side, combining them
// through the main RIB and modelling route redistribution via the transfer
// function, following Batfish's approach as described in §6.
type Multi struct {
	BGP    *BGP
	OSPF   *OSPF
	Static *Static

	// BGPEdges and OSPFEdges give the session/adjacency topology of each
	// protocol; an SRP edge may carry several protocols.
	BGPEdges  []bool
	OSPFEdges []bool

	// Redist reports whether router v redistributes routes learned from
	// src into BGP (paper §6, route redistribution). nil means never.
	Redist func(v topo.NodeID, src RouteSource) bool

	// OriginSources lists which protocols the destination originates the
	// prefix into; SrcConnected is implied for the RIB winner.
	OriginBGP  bool
	OriginOSPF bool
}

// Name implements srp.Protocol.
func (p *Multi) Name() string { return "multi" }

// Origin implements srp.Protocol: the destination holds a connected route
// and injects the prefix into the configured protocols.
func (p *Multi) Origin() srp.Attr {
	a := &MultiAttr{Best: SrcConnected}
	if p.OriginBGP {
		a.BGP = p.BGP.Origin().(*BGPAttr)
	}
	if p.OriginOSPF {
		o := p.OSPF.Origin().(OSPFAttr)
		a.OSPF = &o
	}
	return a
}

// Compare implements srp.Protocol: administrative distance of the RIB
// winner first, then the winning protocol's own comparison.
func (p *Multi) Compare(x, y srp.Attr) int {
	a, b := x.(*MultiAttr), y.(*MultiAttr)
	da, db := DefaultAD(a.Best), DefaultAD(b.Best)
	if da != db {
		return da - db
	}
	if a.Best != b.Best {
		return 0
	}
	switch a.Best {
	case SrcBGP:
		return p.BGP.Compare(a.BGP, b.BGP)
	case SrcOSPF:
		return p.OSPF.Compare(*a.OSPF, *b.OSPF)
	default:
		return 0
	}
}

// Equal implements srp.Protocol.
func (p *Multi) Equal(x, y srp.Attr) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	a, b := x.(*MultiAttr), y.(*MultiAttr)
	if a.Best != b.Best || a.Static != b.Static {
		return false
	}
	if (a.BGP == nil) != (b.BGP == nil) || (a.OSPF == nil) != (b.OSPF == nil) {
		return false
	}
	if a.BGP != nil && !p.BGP.Equal(a.BGP, b.BGP) {
		return false
	}
	if a.OSPF != nil && *a.OSPF != *b.OSPF {
		return false
	}
	return true
}

// Transfer implements srp.Protocol: run each protocol over the edge, then
// recompute the RIB winner by administrative distance.
func (p *Multi) Transfer(i int, e topo.Edge, x srp.Attr) srp.Attr {
	var in *MultiAttr
	if x != nil {
		in = x.(*MultiAttr)
	}
	out := &MultiAttr{}

	// OSPF propagates its own best route over OSPF adjacencies.
	if marked(p.OSPFEdges, i) && in != nil && in.OSPF != nil {
		if r := p.OSPF.Transfer(i, e, *in.OSPF); r != nil {
			o := r.(OSPFAttr)
			out.OSPF = &o
		}
	}

	// BGP advertises the neighbor's RIB winner: a BGP route if BGP won, or
	// a redistributed route when configured.
	if marked(p.BGPEdges, i) && in != nil {
		var candidate *BGPAttr
		switch {
		case in.Best == SrcBGP || in.Best == SrcConnected:
			candidate = in.BGP
		case in.Best == SrcOSPF && p.Redist != nil && p.Redist(e.V, SrcOSPF):
			candidate = &BGPAttr{LP: DefaultLocalPref}
		case in.Best == SrcStatic && p.Redist != nil && p.Redist(e.V, SrcStatic):
			candidate = &BGPAttr{LP: DefaultLocalPref}
		}
		if candidate != nil {
			if r := p.BGP.Transfer(i, e, candidate); r != nil {
				out.BGP = r.(*BGPAttr)
			}
		}
	}

	// Static routes are local configuration and spontaneous.
	if p.Static != nil && marked(p.Static.Routes, i) {
		out.Static = true
	}

	out.Best = ribWinner(out)
	if out.Best == SrcNone {
		return nil
	}
	return out
}

func ribWinner(a *MultiAttr) RouteSource {
	best, bestAD := SrcNone, 1<<30
	consider := func(s RouteSource, present bool) {
		if present && DefaultAD(s) < bestAD {
			best, bestAD = s, DefaultAD(s)
		}
	}
	consider(SrcStatic, a.Static)
	consider(SrcBGP, a.BGP != nil)
	consider(SrcOSPF, a.OSPF != nil)
	return best
}

// MapNodes implements srp.NodeMapper: only the BGP AS path carries node IDs.
func (p *Multi) MapNodes(x srp.Attr, f func(topo.NodeID) topo.NodeID) srp.Attr {
	if x == nil {
		return nil
	}
	a := x.(*MultiAttr)
	out := &MultiAttr{OSPF: a.OSPF, Static: a.Static, Best: a.Best}
	if a.BGP != nil {
		out.BGP = p.BGP.MapNodes(a.BGP, f).(*BGPAttr)
	}
	return out
}
