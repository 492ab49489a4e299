// Writing a compressed network back out as configurations, as Bonsai does
// (paper §7): the abstraction of one destination class becomes a smaller
// Network whose routers are the abstract nodes, each carrying the
// configuration of its group's representative with neighbor references
// remapped through the topology function.

package build

import (
	"fmt"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/topo"
)

// AbstractConfig renders the abstraction of one destination class as a
// configuration. Each abstract node copies its representative's policy
// namespace and per-neighbor configuration along representative edges, and
// the abstract destination originates the class prefix. The result
// validates and round-trips through config.Print/Parse.
func (b *Builder) AbstractConfig(cls ec.Class, abs *core.Abstraction) (*config.Network, error) {
	if abs == nil || abs.AbsG == nil {
		return nil, fmt.Errorf("build: nil abstraction")
	}
	out := config.New(b.Cfg.Name + "-" + cls.Prefix.String())

	groupOf := copyGroups(abs)

	// Routers: one per abstract node, templated on the group representative.
	for _, c := range abs.AbsG.Nodes() {
		rep := b.groupRep(abs, groupOf[c])
		nr := out.AddRouter(abs.AbsG.Name(c))
		nr.Env = rep.Env // shared read-only policy namespace
		if rep.BGP != nil {
			bgp := nr.EnsureBGP(rep.BGP.ASN)
			bgp.RedistributeOSPF = rep.BGP.RedistributeOSPF
			bgp.RedistributeStatic = rep.BGP.RedistributeStatic
		}
		if c == abs.AbsDest {
			nr.Originate = append(nr.Originate, cls.Prefix)
		}
	}

	// Links: one per undirected abstract adjacency, at the first of its
	// directed edges.
	rev := abs.AbsG.ReverseEdges()
	for i, e := range abs.AbsG.Edges() {
		if e.U < e.V || rev[i] < 0 {
			out.AddLink(abs.AbsG.Name(min(e.U, e.V)), abs.AbsG.Name(max(e.U, e.V)))
		}
	}

	// Per-neighbor configuration. All names must resolve in the policy
	// namespace copied onto the abstract router, so every per-edge item is
	// read from the *group representative's* config toward a concrete
	// neighbor in the peer group (transfer-equivalence makes any live choice
	// behave identically; the representative edge is preferred because it is
	// known live for this class).
	for k, e := range abs.AbsG.Edges() {
		gu, gv := groupOf[e.U], groupOf[e.V]
		repID := abs.Groups[gu][0]
		cand, ok := b.neighborInGroup(abs, k, repID, gv)
		if !ok {
			continue
		}
		nr := out.Routers[abs.AbsG.Name(e.U)]
		peer := abs.AbsG.Name(e.V)
		ur := b.routers[repID]
		vName := b.G.Name(cand)
		if ur.BGP != nil && nr.BGP != nil {
			if nb := ur.BGP.Neighbors[vName]; nb != nil {
				nr.BGP.Neighbors[peer] = &config.Neighbor{ImportMap: nb.ImportMap, ExportMap: nb.ExportMap}
			}
		}
		if ur.OSPF != nil {
			if ifc, ok := ur.OSPF.Ifaces[vName]; ok {
				nr.EnsureOSPF().Ifaces[peer] = ifc
			}
		}
		for _, s := range ur.Statics {
			if s.NextHop == vName && staticCovers(s.Prefix, cls.Prefix) {
				nr.Statics = append(nr.Statics, config.StaticRoute{Prefix: s.Prefix, NextHop: peer})
			}
		}
		if acl := ur.IfaceACL[vName]; acl != "" {
			nr.IfaceACL[peer] = acl
		}
	}

	// BGP sessions are configured on both ends, but a session edge can be
	// live in only one direction (e.g. the reverse is filtered to a
	// constant drop and omitted from the abstract graph). Backfill missing
	// peer-side neighbor entries, again resolving names through the peer
	// group's own representative.
	for k, e := range abs.AbsG.Edges() {
		peerR := out.Routers[abs.AbsG.Name(e.V)]
		self := abs.AbsG.Name(e.U)
		if peerR.BGP == nil || peerR.BGP.Neighbors[self] != nil {
			continue
		}
		gv := groupOf[e.V]
		vRepID := abs.Groups[gv][0]
		vRep := b.routers[vRepID]
		cand, ok := b.neighborInGroup(abs, int(rev[k]), vRepID, groupOf[e.U])
		if !ok || vRep.BGP == nil {
			continue
		}
		if nb := vRep.BGP.Neighbors[b.G.Name(cand)]; nb != nil {
			peerR.BGP.Neighbors[self] = &config.Neighbor{ImportMap: nb.ImportMap, ExportMap: nb.ExportMap}
		}
	}

	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("build: abstract configuration invalid: %w", err)
	}
	return out, nil
}

// neighborInGroup returns a concrete neighbor of node u belonging to group
// gi, preferring the representative edge of abstract edge k (known live for
// the class; k < 0 when the abstract graph lacks the edge) and falling back
// to the first successor in the group.
func (b *Builder) neighborInGroup(abs *core.Abstraction, k int, u topo.NodeID, gi int) (topo.NodeID, bool) {
	if k >= 0 {
		if re := abs.RepEdge[k]; re.U == u && abs.F[re.V] == gi {
			return re.V, true
		}
	}
	for _, v := range b.G.Succ(u) {
		if abs.F[v] == gi {
			return v, true
		}
	}
	return 0, false
}
