// SRP instantiation: turning a configuration plus a destination class into
// the multi-protocol Stable Routing Problem of §6, either over the concrete
// topology or over a computed abstraction (where every abstract edge
// behaves like its representative concrete edge, which transfer-equivalence
// makes well defined).

package build

import (
	"fmt"
	"math"
	"net/netip"
	"sync"

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
	return &srp.Instance{G: b.G, Dest: dest, P: b.protocol(cls, b.G, dest, nil, redist, b.routers[dest])}, nil
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
	return &srp.Instance{G: abs.AbsG, Dest: abs.AbsDest, P: b.protocol(cls, abs.AbsG, abs.AbsDest, of, redist, b.routers[abs.Dest])}, nil
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
		i, ok := b.G.EdgeIndex(rep.U, rep.V)
		return !ok || b.aclPermit(i, cls)
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

// protocol assembles the §6 multi-protocol SRP protocol of the instance over
// g toward dest whose edge k behaves like concrete edge of[k] — k itself
// when of is nil (the concrete instance), the representative's index in an
// abstract one — and whose node v redistributes as redist[v] says. Every
// per-edge table is the Builder's own vector gathered through of.
func (b *Builder) protocol(cls ec.Class, g *topo.Graph, dest topo.NodeID, of []int32, redist []redistFlags, destRouter *config.Router) srp.Protocol {
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
	var statics []bool // per edge k: a static rides it; nil when none does
	if mask := b.staticMask(cls); mask != nil {
		statics = make([]bool, n)
		for k := range statics {
			i := k
			if of != nil {
				i = int(of[k])
			}
			statics[k] = mask.Has(i)
		}
	}
	return &protocols.Multi{
		BGP:        &protocols.BGP{Export: exp, Import: imp, IBGP: ibgp},
		OSPF:       &protocols.OSPF{Cost: cost, CrossArea: gather(tab.ospfCross, of)},
		Static:     &protocols.Static{Routes: statics},
		BGPEdges:   bgpEdges,
		OSPFEdges:  ospfEdges,
		Redist:     redistributes,
		OriginBGP:  destRouter.BGP != nil,
		OriginOSPF: destRouter.OSPF != nil,
		EdgeBound:  b.edgeBound(g, dest, shapeOf, cost, statics, redist, destRouter.OSPF != nil, pfx),
	}
}

// edgeBound returns Multi.EdgeBound for the instance over g toward dest
// whose edge k carries session shapeOf[k], OSPF at cost[k] (none below 0) and
// a static route where statics[k], and whose node v redistributes as
// redist[v] says. It is computed on first use, since only the solution
// enumeration asks.
//
// A BGP session delivers nothing when its export or import map denies every
// route to the class, or when its sender has a static route for the class
// (which always wins its RIB, so it advertises BGP only by redistributing
// static routes, fresh at the default preference); otherwise a route arrives
// at most at the highest preference its import assigns (the default where
// the map passes it through; over iBGP anything). An eBGP session rises when
// that is no higher than the least preference its sender can hold (the least
// its own imports assign, or the default at the destination; nothing is known
// of a sender with an iBGP session), unless the sender can turn an OSPF route,
// worse-ranked than any BGP one, into BGP by redistribution. An OSPF route
// arrives at no less than the sender's shortest OSPF distance from an
// originating destination plus the edge's cost.
func (b *Builder) edgeBound(g *topo.Graph, dest topo.NodeID, shapeOf, cost []int32, statics []bool, redist []redistFlags, originOSPF bool, pfx netip.Prefix) func(int) protocols.EdgeBound {
	var once sync.Once
	var bounds []protocols.EdgeBound
	return func(k int) protocols.EdgeBound {
		once.Do(func() { bounds = b.edgeBounds(g, dest, shapeOf, cost, statics, redist, originOSPF, pfx) })
		return bounds[k]
	}
}

func (b *Builder) edgeBounds(g *topo.Graph, dest topo.NodeID, shapeOf, cost []int32, statics []bool, redist []redistFlags, originOSPF bool, pfx netip.Prefix) []protocols.EdgeBound {
	edges, n := g.Edges(), g.NumNodes()
	staticAt := make([]bool, n)
	for k, e := range edges {
		staticAt[e.U] = staticAt[e.U] || statics != nil && statics[k] && e.U != dest
	}
	vals := make(map[uint32]bool)
	lo, hi := make([]uint32, len(edges)), make([]uint32, len(edges))
	for k, si := range shapeOf {
		lo[k] = math.MaxUint32
		if v := edges[k].V; si < 0 || staticAt[v] && !redist[v].static {
			continue
		}
		sess := &b.tab.shapes[si]
		if !sess.expEnv.MayPermit(sess.expMap, pfx) || !sess.impEnv.MayPermit(sess.impMap, pfx) {
			continue
		}
		if sess.ibgp {
			lo[k], hi[k] = 0, math.MaxUint32
			continue
		}
		clear(vals)
		sess.impEnv.LocalPrefValues(sess.impMap, pfx, vals)
		if sess.impEnv.LocalPrefPassesThrough(sess.impMap, pfx) {
			vals[protocols.DefaultLocalPref] = true
		}
		for v := range vals {
			lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
		}
	}
	least, dist := make([]uint32, n), make([]int, n)
	for v := range least {
		least[v], dist[v] = math.MaxUint32, -1
		if topo.NodeID(v) == dest {
			least[v] = protocols.DefaultLocalPref
		}
		l, h := g.OutEdges(topo.NodeID(v))
		for k := l; k < h; k++ {
			least[v] = min(least[v], lo[k])
		}
	}
	// Shortest OSPF distances from an originating destination.
	if originOSPF {
		dist[dest] = 0
		for changed := true; changed; {
			changed = false
			for k, e := range edges {
				if d := dist[e.V] + int(cost[k]); cost[k] >= 0 && dist[e.V] >= 0 && (dist[e.U] < 0 || d < dist[e.U]) {
					dist[e.U], changed = d, true
				}
			}
		}
	}
	bounds := make([]protocols.EdgeBound, len(edges))
	for k, e := range edges {
		bounds[k] = protocols.EdgeBound{
			LP:       hi[k],
			BGPRises: hi[k] <= least[e.V] && !(redist[e.V].ospf && dist[e.V] >= 0),
			OSPFCost: -1,
		}
		if cost[k] >= 0 && dist[e.V] >= 0 {
			bounds[k].OSPFCost = dist[e.V] + int(cost[k])
		}
	}
	return bounds
}
