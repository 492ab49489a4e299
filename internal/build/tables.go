// The Builder's class-independent per-edge state. An edge's position in
// G.Edges() is its only key: everything the pipeline knows about a directed
// edge before a destination class is chosen — its BGP session, OSPF
// adjacency, route maps, egress ACL, transport content label — is one slot
// in a dense vector at that position, filled once by New.

package build

import (
	"bonsai/internal/config"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// bgpSession is the class-independent description of a live BGP session on
// the directed SRP edge (u, v): u learns from v, so v's export map runs
// first and u's import map second. Sessions are interned (edgeTables.shapes)
// with the namespace of an empty map normalised to nil — the identity map is
// namespace-independent, and without that every router's Env pointer would
// make every session a distinct shape.
type bgpSession struct {
	expEnv *policy.Env
	expMap string
	impEnv *policy.Env
	impMap string
	ibgp   bool
	// redistOSPF/redistStatic record whether the sender v injects RIB routes
	// learned from those protocols into BGP (paper §6). They are part of the
	// edge's transfer function and therefore of its canonical key.
	redistOSPF   bool
	redistStatic bool
}

// rmRef names a route map inside a router's policy namespace.
type rmRef struct {
	env  *policy.Env
	name string
}

// aclRef names an ACL inside a router's policy namespace.
type aclRef struct {
	env  *policy.Env
	name string
}

// edgeTables holds the per-edge vectors, all aligned with G.Edges(), and the
// small interned tables they index. Every link contributes both directed
// edges, so rev has no -1 entries and a node's out-edge span doubles as its
// sorted neighbour list.
type edgeTables struct {
	g     *topo.Graph
	edges []topo.Edge // g.Edges()
	rev   []int32     // g.ReverseEdges(): index of (v, u) for edge (u, v)

	shapes    []bgpSession // distinct session descriptors
	shapeOf   []int32      // per edge: index into shapes, -1 without a session
	ospfCost  []int32      // per edge: cost u pays via v, -1 without an adjacency
	ospfCross []bool       // per edge: the adjacency crosses an area boundary
	expRM     []int32      // per edge: sigRMs index of the export map, -1 none
	impRM     []int32      // per edge: sigRMs index of the import map, -1 none
	aclIdx    []int32      // per edge: sigACLs index of u's egress ACL toward v, -1 none
	content   []uint64     // per edge: mix64 of the content label, equal where the class-independent behaviour is (transport.go)

	// sigRMs and sigACLs enumerate the policy objects whose class-dependent
	// behaviour a class fingerprint records — every route map on a live
	// session, every ACL on a live interface — in first-use order along
	// G.Edges(), so two Builders over one configuration agree on it.
	sigRMs  []rmRef
	sigACLs []aclRef
	rmLists [][]*policy.PrefixList // per sigRMs entry: prefix lists matched, in clause/match order
	rmKnown []bool                 // per sigRMs entry: the route map exists
}

// out returns the index range of u's out-edges, which list u's neighbours in
// ascending order.
func (t *edgeTables) out(u topo.NodeID) (lo, hi int32) {
	l, h := t.g.OutEdges(u)
	return int32(l), int32(h)
}

// newEdgeTables derives every per-edge vector in two sweeps of the edge
// list: the first looks up each router's configuration toward each neighbour
// once, the second pairs every edge with its reverse — a BGP session or an
// OSPF adjacency needs both ends configured. g must hold both directions of
// every link, as New builds it.
func newEdgeTables(g *topo.Graph, routers []*config.Router) *edgeTables {
	edges, rev := g.Edges(), g.ReverseEdges()
	n := len(edges)
	vec := make([]int32, 5*n)
	for i := range vec {
		vec[i] = -1
	}
	carve := func() []int32 { v := vec[:n:n]; vec = vec[n:]; return v }
	t := &edgeTables{
		g: g, edges: edges, rev: rev,
		shapeOf: carve(), ospfCost: carve(), expRM: carve(), impRM: carve(), aclIdx: carve(),
		ospfCross: make([]bool, n), content: make([]uint64, n),
	}

	// u's own configuration on its interface toward v, per edge (u, v).
	nbr := make([]*config.Neighbor, n)
	ifc := make([]config.OSPFIface, n)
	hasIfc := make([]bool, n)
	aclIDs := make(map[aclRef]int32)
	for i, e := range edges {
		r, peer := routers[e.U], g.Name(e.V)
		if r.BGP != nil {
			nbr[i] = r.BGP.Neighbors[peer]
		}
		if r.OSPF != nil {
			ifc[i], hasIfc[i] = r.OSPF.Ifaces[peer]
		}
		if name := r.IfaceACL[peer]; name != "" {
			a := aclRef{env: r.Env, name: name}
			id, ok := aclIDs[a]
			if !ok {
				id = int32(len(t.sigACLs))
				aclIDs[a] = id
				t.sigACLs = append(t.sigACLs, a)
			}
			t.aclIdx[i] = id
		}
	}

	// A session shape is its two route maps — as sigRMs indices, so the
	// only strings hashed are the names of maps that exist — and three
	// flags.
	type shapeKey struct {
		expRM, impRM                   int32
		ibgp, redistOSPF, redistStatic bool
	}
	type shapeInfo struct{ id, content int32 }
	shapeIDs := make(map[shapeKey]shapeInfo)
	rmIDs := make(map[rmRef]int32)
	rmContent := make(map[rmRef]string)
	sessContent := make(map[string]int32)
	rmID := func(env *policy.Env, name string) int32 {
		if name == "" {
			return -1
		}
		r := rmRef{env: env, name: name}
		id, ok := rmIDs[r]
		if !ok {
			id = int32(len(t.sigRMs))
			rmIDs[r] = id
			t.sigRMs = append(t.sigRMs, r)
		}
		return id
	}
	for i, e := range edges {
		j := rev[i]
		// The content label packs what transport compares of an edge before
		// a class is chosen: the session's content (flags and route-map
		// content, not names) above the OSPF cost and area-crossing bit.
		var label uint64
		if nbr[i] != nil && nbr[j] != nil {
			ur, vr := routers[e.U], routers[e.V]
			k := shapeKey{
				expRM:        rmID(vr.Env, nbr[j].ExportMap),
				impRM:        rmID(ur.Env, nbr[i].ImportMap),
				ibgp:         ur.BGP.ASN == vr.BGP.ASN,
				redistOSPF:   vr.BGP.RedistributeOSPF,
				redistStatic: vr.BGP.RedistributeStatic,
			}
			s, ok := shapeIDs[k]
			if !ok {
				sess := bgpSession{
					expMap: nbr[j].ExportMap, impMap: nbr[i].ImportMap,
					ibgp: k.ibgp, redistOSPF: k.redistOSPF, redistStatic: k.redistStatic,
				}
				if sess.expMap != "" {
					sess.expEnv = vr.Env
				}
				if sess.impMap != "" {
					sess.impEnv = ur.Env
				}
				lbl := appendFlag(appendFlag(appendFlag(nil, sess.ibgp), sess.redistOSPF), sess.redistStatic)
				lbl = append(lbl, mapContentSig(rmContent, sess.expEnv, sess.expMap)...)
				lbl = append(lbl, '/')
				lbl = append(lbl, mapContentSig(rmContent, sess.impEnv, sess.impMap)...)
				c, ok := sessContent[string(lbl)]
				if !ok {
					c = int32(len(sessContent))
					sessContent[string(lbl)] = c
				}
				s = shapeInfo{id: int32(len(t.shapes)), content: c}
				shapeIDs[k] = s
				t.shapes = append(t.shapes, sess)
			}
			t.shapeOf[i], t.expRM[i], t.impRM[i] = s.id, k.expRM, k.impRM
			label = uint64(s.content+1) << 33
		}
		if hasIfc[i] && hasIfc[j] {
			t.ospfCost[i] = int32(max(ifc[i].Cost, 1))
			t.ospfCross[i] = ifc[i].Area != ifc[j].Area
			label |= uint64(t.ospfCost[i]) << 1
			if t.ospfCross[i] {
				label |= 1
			}
		}
		t.content[i] = mix64(label + 1) // a bijection: equal words, equal content
	}

	// Per route map, the prefix lists its clauses match, in clause/match
	// order — the positions whose outcomes the class fingerprint records.
	t.rmLists = make([][]*policy.PrefixList, len(t.sigRMs))
	t.rmKnown = make([]bool, len(t.sigRMs))
	for i, r := range t.sigRMs {
		rm := r.env.RouteMaps[r.name]
		if rm == nil {
			continue
		}
		t.rmKnown[i] = true
		for ci := range rm.Clauses {
			for _, m := range rm.Clauses[ci].Matches {
				if m.Kind == policy.MatchPrefix {
					t.rmLists[i] = append(t.rmLists[i], r.env.PrefixLists[m.Arg])
				}
			}
		}
	}
	return t
}
