// SRP instantiation: turning a configuration plus a destination class into
// the multi-protocol Stable Routing Problem of §6, either over the concrete
// topology or over a computed abstraction (where every abstract edge
// behaves like its representative concrete edge, which transfer-equivalence
// makes well defined).

package build

import (
	"fmt"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/protocols"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// redistFlags records which RIB sources a router injects into BGP.
type redistFlags struct {
	ospf, static bool
}

func redistOf(r *config.Router) redistFlags {
	if r.BGP == nil {
		return redistFlags{}
	}
	return redistFlags{ospf: r.BGP.RedistributeOSPF, static: r.BGP.RedistributeStatic}
}

// copyGroups inverts abs.Copies: abstract node -> group index.
func copyGroups(abs *core.Abstraction) []int {
	groupOf := make([]int, abs.AbsG.NumNodes())
	for gi, copies := range abs.Copies {
		for _, c := range copies {
			groupOf[c] = gi
		}
	}
	return groupOf
}

// groupRep returns the configuration of group gi's representative member.
func (b *Builder) groupRep(abs *core.Abstraction, gi int) *config.Router {
	return b.routers[abs.Groups[gi][0]]
}

// Instance builds the concrete SRP instance of one destination class: the
// full topology, the class's origin router as destination, and the §6
// multi-protocol attribute combining BGP, OSPF and static routing through
// the main RIB.
func (b *Builder) Instance(cls ec.Class) (*srp.Instance, error) {
	dest, err := b.destOf(cls)
	if err != nil {
		return nil, err
	}
	redist := make([]redistFlags, len(b.routers))
	for u, r := range b.routers {
		redist[u] = redistOf(r)
	}
	return &srp.Instance{G: b.G, Dest: dest, P: b.protocol(cls, nil, redist, b.routers[dest])}, nil
}

// AbstractInstance builds the SRP instance of the compressed network for the
// class: the abstract topology with every edge inheriting the protocol
// behavior of its representative concrete edge (RepEdge), and the abstract
// destination originating exactly as the concrete one does.
func (b *Builder) AbstractInstance(cls ec.Class, abs *core.Abstraction) (*srp.Instance, error) {
	if _, err := b.destOf(cls); err != nil {
		return nil, err
	}
	// of[k] is the concrete edge abstract edge k behaves like.
	of := make([]int32, len(abs.RepEdge))
	for k, rep := range abs.RepEdge {
		i, ok := b.G.EdgeIndex(rep.U, rep.V)
		if !ok {
			e := abs.AbsG.Edges()[k]
			return nil, fmt.Errorf("build: abstract edge %s->%s: representative (%d,%d) is not an edge of this network",
				abs.AbsG.Name(e.U), abs.AbsG.Name(e.V), rep.U, rep.V)
		}
		of[k] = int32(i)
	}
	redist := make([]redistFlags, abs.AbsG.NumNodes())
	for c, gi := range copyGroups(abs) {
		redist[c] = redistOf(b.groupRep(abs, gi))
	}
	return &srp.Instance{G: abs.AbsG, Dest: abs.AbsDest, P: b.protocol(cls, of, redist, b.routers[abs.Dest])}, nil
}

// AbstractACLPermitFunc returns the dataplane ACL verdict function for the
// compressed network: each abstract edge applies the ACL of its
// representative concrete edge (fwd-equivalence requires all edges mapped
// together to share the verdict, which the edge key guarantees).
func (b *Builder) AbstractACLPermitFunc(cls ec.Class, abs *core.Abstraction) func(u, v topo.NodeID) bool {
	return func(u, v topo.NodeID) bool {
		k, ok := abs.AbsG.EdgeIndex(u, v)
		if !ok {
			return true
		}
		rep := abs.RepEdge[k]
		return b.aclPermit(rep.U, rep.V, cls)
	}
}

// gather lays src out along an instance's edges: out[k] = src[of[k]]. A nil
// of is the concrete instance, whose edge k is concrete edge k, so it shares
// the Builder's vector instead of copying it.
func gather[T any](src []T, of []int32) []T {
	if of == nil || src == nil {
		return src
	}
	out := make([]T, len(of))
	for k, i := range of {
		out[k] = src[i]
	}
	return out
}

// protocol assembles the §6 multi-protocol SRP protocol of an instance whose
// edge k behaves like concrete edge of[k] — k itself when of is nil (the
// concrete instance), the representative's index in an abstract one — and
// whose node v redistributes as redist[v] says. Every per-edge table is the
// Builder's own vector gathered through of.
func (b *Builder) protocol(cls ec.Class, of []int32, redist []redistFlags, destRouter *config.Router) srp.Protocol {
	tab, pfx := b.tab, cls.Prefix
	shapeOf := gather(tab.shapeOf, of)
	cost := gather(tab.ospfCost, of)
	n := len(shapeOf)
	bgpEdges, ibgp, ospfEdges := make([]bool, n), make([]bool, n), make([]bool, n)
	for k, si := range shapeOf {
		if si >= 0 {
			bgpEdges[k], ibgp[k] = true, tab.shapes[si].ibgp
		}
		ospfEdges[k] = cost[k] >= 0
	}
	exp := func(k int, _ topo.Edge, a *protocols.BGPAttr) *protocols.BGPAttr {
		if sess := &tab.shapes[shapeOf[k]]; sess.expMap != "" {
			return sess.expEnv.EvalRouteMap(sess.expMap, pfx, a)
		}
		return a
	}
	imp := func(k int, _ topo.Edge, a *protocols.BGPAttr) *protocols.BGPAttr {
		if sess := &tab.shapes[shapeOf[k]]; sess.impMap != "" {
			return sess.impEnv.EvalRouteMap(sess.impMap, pfx, a)
		}
		return a
	}
	redistributes := func(v topo.NodeID, src protocols.RouteSource) bool {
		switch src {
		case protocols.SrcOSPF:
			return redist[v].ospf
		case protocols.SrcStatic:
			return redist[v].static
		default:
			return false
		}
	}
	return &protocols.Multi{
		BGP:        &protocols.BGP{Export: exp, Import: imp, IBGP: ibgp},
		OSPF:       &protocols.OSPF{Cost: cost, CrossArea: gather(tab.ospfCross, of)},
		Static:     &protocols.Static{Routes: gather([]bool(b.staticMask(cls)), of)},
		BGPEdges:   bgpEdges,
		OSPFEdges:  ospfEdges,
		Redist:     redistributes,
		OriginBGP:  destRouter.BGP != nil,
		OriginOSPF: destRouter.OSPF != nil,
	}
}
