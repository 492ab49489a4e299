// SRP instantiation: turning a configuration plus a destination class into
// the multi-protocol Stable Routing Problem of §6, either over the concrete
// topology or over a computed abstraction (where every abstract edge
// behaves like its representative concrete edge, which transfer-equivalence
// makes well defined).

package build

import (
	"fmt"
	"net/netip"

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

// copyGroups inverts abs.Copies: abstract node -> group index.
func copyGroups(abs *core.Abstraction) map[topo.NodeID]int {
	groupOf := make(map[topo.NodeID]int, abs.AbsG.NumNodes())
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

// instanceTables collects the per-edge protocol state of one SRP instance.
type instanceTables struct {
	bgpEdges  map[topo.Edge]bool
	ibgp      map[topo.Edge]bool
	expPol    map[topo.Edge]rmRef
	impPol    map[topo.Edge]rmRef
	ospfEdges map[topo.Edge]bool
	ospfCost  map[topo.Edge]int
	ospfCross map[topo.Edge]bool
	statics   map[topo.Edge]bool
	redist    map[topo.NodeID]redistFlags
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
	statics := b.staticMask(cls)
	t := newInstanceTables()
	for i, e := range b.tab.edges {
		t.add(e, b.tab, i, statics.has(i))
	}
	for _, u := range b.G.Nodes() {
		if bgp := b.routers[u].BGP; bgp != nil {
			t.redist[u] = redistFlags{ospf: bgp.RedistributeOSPF, static: bgp.RedistributeStatic}
		}
	}
	return &srp.Instance{G: b.G, Dest: dest, P: t.protocol(cls.Prefix, b.routers[dest])}, nil
}

// AbstractInstance builds the SRP instance of the compressed network for the
// class: the abstract topology with every edge inheriting the protocol
// behavior of its representative concrete edge (RepEdge), and the abstract
// destination originating exactly as the concrete one does.
func (b *Builder) AbstractInstance(cls ec.Class, abs *core.Abstraction) (*srp.Instance, error) {
	if _, err := b.destOf(cls); err != nil {
		return nil, err
	}
	statics := b.staticMask(cls)
	groupOf := copyGroups(abs)
	t := newInstanceTables()
	for _, e := range abs.AbsG.Edges() {
		rep, ok := abs.RepEdge[e]
		if !ok {
			return nil, fmt.Errorf("build: abstract edge %s->%s has no representative",
				abs.AbsG.Name(e.U), abs.AbsG.Name(e.V))
		}
		i, ok := b.G.EdgeIndex(rep.U, rep.V)
		if !ok {
			return nil, fmt.Errorf("build: abstract edge %s->%s: representative (%d,%d) is not an edge of this network",
				abs.AbsG.Name(e.U), abs.AbsG.Name(e.V), rep.U, rep.V)
		}
		t.add(e, b.tab, i, statics.has(i))
	}
	for _, c := range abs.AbsG.Nodes() {
		if bgp := b.groupRep(abs, groupOf[c]).BGP; bgp != nil {
			t.redist[c] = redistFlags{ospf: bgp.RedistributeOSPF, static: bgp.RedistributeStatic}
		}
	}
	destRouter := b.routers[abs.Dest]
	return &srp.Instance{G: abs.AbsG, Dest: abs.AbsDest, P: t.protocol(cls.Prefix, destRouter)}, nil
}

// AbstractACLPermitFunc returns the dataplane ACL verdict function for the
// compressed network: each abstract edge applies the ACL of its
// representative concrete edge (fwd-equivalence requires all edges mapped
// together to share the verdict, which the edge key guarantees).
func (b *Builder) AbstractACLPermitFunc(cls ec.Class, abs *core.Abstraction) func(u, v topo.NodeID) bool {
	return func(u, v topo.NodeID) bool {
		rep, ok := abs.RepEdge[topo.Edge{U: u, V: v}]
		if !ok {
			return true
		}
		return b.aclPermit(rep.U, rep.V, cls)
	}
}

func newInstanceTables() *instanceTables {
	return &instanceTables{
		bgpEdges:  make(map[topo.Edge]bool),
		ibgp:      make(map[topo.Edge]bool),
		expPol:    make(map[topo.Edge]rmRef),
		impPol:    make(map[topo.Edge]rmRef),
		ospfEdges: make(map[topo.Edge]bool),
		ospfCost:  make(map[topo.Edge]int),
		ospfCross: make(map[topo.Edge]bool),
		statics:   make(map[topo.Edge]bool),
		redist:    make(map[topo.NodeID]redistFlags),
	}
}

// add gives instance edge e the protocol behaviour of concrete edge i: e
// itself in a concrete instance, e's representative in an abstract one.
func (t *instanceTables) add(e topo.Edge, tab *edgeTables, i int, static bool) {
	if si := tab.shapeOf[i]; si >= 0 {
		sess := &tab.shapes[si]
		t.bgpEdges[e] = true
		if sess.ibgp {
			t.ibgp[e] = true
		}
		if sess.expMap != "" {
			t.expPol[e] = rmRef{env: sess.expEnv, name: sess.expMap}
		}
		if sess.impMap != "" {
			t.impPol[e] = rmRef{env: sess.impEnv, name: sess.impMap}
		}
	}
	if c := tab.ospfCost[i]; c >= 0 {
		t.ospfEdges[e] = true
		t.ospfCost[e] = int(c)
		if tab.ospfCross[i] {
			t.ospfCross[e] = true
		}
	}
	if static {
		t.statics[e] = true
	}
}

// protocol assembles the §6 multi-protocol SRP protocol from the tables.
func (t *instanceTables) protocol(pfx netip.Prefix, destRouter *config.Router) srp.Protocol {
	exp := func(e topo.Edge, a *protocols.BGPAttr) *protocols.BGPAttr {
		if r, ok := t.expPol[e]; ok {
			return r.env.EvalRouteMap(r.name, pfx, a)
		}
		return a
	}
	imp := func(e topo.Edge, a *protocols.BGPAttr) *protocols.BGPAttr {
		if r, ok := t.impPol[e]; ok {
			return r.env.EvalRouteMap(r.name, pfx, a)
		}
		return a
	}
	redist := func(v topo.NodeID, src protocols.RouteSource) bool {
		r, ok := t.redist[v]
		if !ok {
			return false
		}
		switch src {
		case protocols.SrcOSPF:
			return r.ospf
		case protocols.SrcStatic:
			return r.static
		default:
			return false
		}
	}
	return &protocols.Multi{
		BGP:        &protocols.BGP{Export: exp, Import: imp, IBGP: t.ibgp},
		OSPF:       &protocols.OSPF{Cost: t.ospfCost, CrossArea: t.ospfCross},
		Static:     &protocols.Static{Routes: t.statics},
		BGPEdges:   t.bgpEdges,
		OSPFEdges:  t.ospfEdges,
		Redist:     redist,
		OriginBGP:  destRouter.BGP != nil,
		OriginOSPF: destRouter.OSPF != nil,
	}
}
