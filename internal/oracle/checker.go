// Package oracle is the paper's two independent checks of a computed
// abstraction, the ones the compression in internal/core is tested against.
// It is test-side code: only _test.go files import it.
//
// Checker holds the effective-abstraction conditions of §4 (Figure 4):
// dest-equivalence, the ∀∃ and ∀∀ topology conditions, and
// transfer-equivalence of edges mapped together. Compression constructs
// abstractions that satisfy them by construction; the paper's point is that
// these local conditions are efficiently checkable and imply the global
// CP-equivalence property.
//
// Check and CheckAcrossSolutions test that property on solutions (§2, §4.2):
// label-equivalence — every node carries the h-image of its abstract
// counterpart's attribute — and fwd-equivalence — the forwarding relations
// agree modulo the topology function f. For BGP-effective abstractions with
// case splitting, the mapping from concrete nodes to split copies depends on
// the solution (Theorem 4.5), so behaviors are matched group-wise: every
// member's behavior must be realized by some copy and vice versa, with
// attribute paths compared after normalising both sides to abstraction
// groups.
package oracle

import (
	"fmt"

	"bonsai/internal/core"
	"bonsai/internal/topo"
)

// Checker validates one abstraction against its concrete network.
type Checker struct {
	Abs *core.Abstraction
	// G is the concrete graph the abstraction is checked against: the one it
	// was computed over, or the network a cached abstraction now serves.
	G *topo.Graph
	// EdgeKey gives the canonical policy signature of concrete edges.
	EdgeKey func(u, v topo.NodeID) core.EdgeKey
}

// CheckDestEquivalence verifies that the destination, and only the
// destination, maps to the abstract destination (Figure 4,
// dest-equivalence).
func (c *Checker) CheckDestEquivalence() error {
	a := c.Abs
	dg := a.F[a.Dest]
	if len(a.Groups[dg]) != 1 {
		return fmt.Errorf("abstraction: destination group has %d members", len(a.Groups[dg]))
	}
	if a.Copies[dg][0] != a.AbsDest || len(a.Copies[dg]) != 1 {
		return fmt.Errorf("abstraction: destination group split or mislabelled")
	}
	return nil
}

// CheckForallExists verifies the two ∀∃-abstraction conditions: every live
// concrete edge has an abstract counterpart, and for every abstract edge,
// every member of the source group has a live edge into the target group.
func (c *Checker) CheckForallExists() error {
	a := c.Abs
	// Condition 1: concrete edges map to abstract edges.
	for _, e := range c.G.Edges() {
		if c.EdgeKey(e.U, e.V).Dead() {
			continue
		}
		found := false
		for _, cu := range a.Copies[a.F[e.U]] {
			for _, cv := range a.Copies[a.F[e.V]] {
				if a.AbsG.HasEdge(cu, cv) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return fmt.Errorf("abstraction: live edge %s->%s has no abstract counterpart",
				c.G.Name(e.U), c.G.Name(e.V))
		}
	}
	// Condition 2: per abstract edge, ∀u ∃v.
	for _, ge := range c.liveGroupEdges() {
		for _, u := range a.Groups[ge.src] {
			ok := false
			for _, v := range c.G.Succ(u) {
				if a.F[v] == ge.dst && !c.EdgeKey(u, v).Dead() {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("abstraction: %s has no live edge into group %d despite abstract edge",
					c.G.Name(u), ge.dst)
			}
		}
	}
	return nil
}

// CheckForallForall verifies the ∀∀-abstraction condition of BGP-effective
// abstractions (Figure 4), which compression refines by (docs/audit.md §25):
// on every live group edge with a listed group at either end, every member
// of the source group has a live edge to every member of the target group
// (excluding itself). Groups not listed are skipped — the paper only needs
// ∀∀ around nodes with multiple local-preference behaviors.
func (c *Checker) CheckForallForall(groups map[int]bool) error {
	a := c.Abs
	for _, ge := range c.liveGroupEdges() {
		if !groups[ge.src] && !groups[ge.dst] {
			continue
		}
		for _, u := range a.Groups[ge.src] {
			for _, v := range a.Groups[ge.dst] {
				if u != v && (!c.G.HasEdge(u, v) || c.EdgeKey(u, v).Dead()) {
					return fmt.Errorf("abstraction: ∀∀ violated: %s has no live edge to %s", c.G.Name(u), c.G.Name(v))
				}
			}
		}
	}
	return nil
}

// CheckTransferEquivalence verifies that all concrete edges mapped to one
// abstract edge share a single canonical transfer signature, so that the
// abstract edge's behavior is well defined (Figure 4, trans-equivalence; for
// BGP the BDD relation already excludes the loop-prevention check, making
// this transfer-approx).
func (c *Checker) CheckTransferEquivalence() error {
	a := c.Abs
	type ge struct{ src, dst int }
	seen := make(map[ge]core.EdgeKey)
	for _, e := range c.G.Edges() {
		k := c.EdgeKey(e.U, e.V)
		if k.Dead() {
			continue
		}
		g := ge{a.F[e.U], a.F[e.V]}
		if prev, ok := seen[g]; ok {
			if prev != k {
				return fmt.Errorf("abstraction: edges into group pair (%d,%d) have different transfer functions: %+v vs %+v",
					g.src, g.dst, prev, k)
			}
		} else {
			seen[g] = k
		}
	}
	return nil
}

// CheckSelfLoopFreedom verifies that live concrete edges inside one group
// only occur when the group is split into multiple copies, since abstract
// SRPs must remain self-loop-free (paper §3.1) while split copies may
// legitimately interconnect (§4.3). Unsplit internal adjacency is sound
// only when the transfer function strictly worsens attributes; the checker
// reports it so callers can decide.
func (c *Checker) CheckSelfLoopFreedom() []topo.Edge {
	a := c.Abs
	var internal []topo.Edge
	for _, e := range c.G.Edges() {
		if c.EdgeKey(e.U, e.V).Dead() {
			continue
		}
		if a.F[e.U] == a.F[e.V] && len(a.Copies[a.F[e.U]]) == 1 {
			internal = append(internal, e)
		}
	}
	return internal
}

// CheckAll runs every condition appropriate for the mode and returns the
// first violation. In ModeBGP, ∀∀ binds the groups with a member of more
// than one local preference under prefs (Builder.PrefsFunc).
func (c *Checker) CheckAll(mode core.Mode, prefs func(topo.NodeID) int) error {
	if err := c.CheckDestEquivalence(); err != nil {
		return err
	}
	if err := c.CheckForallExists(); err != nil {
		return err
	}
	if err := c.CheckTransferEquivalence(); err != nil {
		return err
	}
	if mode != core.ModeBGP {
		return nil
	}
	multiPref := make(map[int]bool)
	for u, g := range c.Abs.F {
		multiPref[g] = multiPref[g] || prefs(topo.NodeID(u)) > 1
	}
	return c.CheckForallForall(multiPref)
}

type groupEdge struct{ src, dst int }

// liveGroupEdges returns the group pairs joined by at least one live edge.
func (c *Checker) liveGroupEdges() []groupEdge {
	a := c.Abs
	seen := make(map[groupEdge]bool)
	var out []groupEdge
	for _, e := range c.G.Edges() {
		if c.EdgeKey(e.U, e.V).Dead() {
			continue
		}
		ge := groupEdge{a.F[e.U], a.F[e.V]}
		if !seen[ge] {
			seen[ge] = true
			out = append(out, ge)
		}
	}
	return out
}
