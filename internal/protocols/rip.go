// Package protocols implements SRP protocol models for the routing protocols
// treated in the paper (§3.2): RIP (distance vector), OSPF (link state with
// areas), eBGP (path vector with policy and loop prevention), static routes,
// and the multi-protocol main-RIB combination of §6.
//
// Every per-edge table here is a vector aligned with the instance graph's
// Edges(), read at the index srp.Protocol.Transfer receives beside the edge;
// a nil vector is the empty table.
package protocols

import (
	"fmt"

	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// RIP models the distance-vector protocol of §3.2: attributes are hop counts
// in [0, Limit), the comparison prefers fewer hops, and the transfer
// function increments the hop count and drops routes at the limit.
type RIP struct {
	// Limit is the maximum path length; RIP uses 16. Zero means 16.
	Limit int
}

func (r *RIP) limit() int {
	if r.Limit == 0 {
		return 16
	}
	return r.Limit
}

// Name implements srp.Protocol.
func (r *RIP) Name() string { return "rip" }

// Origin implements srp.Protocol: the destination advertises hop count 0.
func (r *RIP) Origin() srp.Attr { return 0 }

// Compare implements srp.Protocol: fewer hops is better.
func (r *RIP) Compare(a, b srp.Attr) int { return a.(int) - b.(int) }

// Equal implements srp.Protocol.
func (r *RIP) Equal(a, b srp.Attr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.(int) == b.(int)
}

// Transfer implements srp.Protocol: add one hop, drop at the limit.
func (r *RIP) Transfer(i int, e topo.Edge, a srp.Attr) srp.Attr {
	if a == nil {
		return nil
	}
	h := a.(int) + 1
	if h >= r.limit() {
		return nil
	}
	return h
}

// MapNodes implements srp.NodeMapper; RIP attributes carry no node names.
func (r *RIP) MapNodes(a srp.Attr, f func(topo.NodeID) topo.NodeID) srp.Attr { return a }

func (r *RIP) String() string { return fmt.Sprintf("RIP(limit=%d)", r.limit()) }
