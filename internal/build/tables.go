// The Builder's class-independent per-edge state. An edge's position in
// G.Edges() is its only key: everything the pipeline knows about a directed
// edge before a destination class is chosen — its BGP session, OSPF
// adjacency, route maps, egress ACL, transport content label — is one slot
// in a dense vector at that position, filled once by New.

package build

import (
	"cmp"
	"slices"
	"strings"

	"bonsai/internal/config"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
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

// edgeRec is one directed edge's class-independent label: everything
// transport's edge comparison (edgeEq) reads of the edge itself, in one
// record, so that comparing two edges touches two records.
type edgeRec struct {
	content uint64 // mix64 of the content label, equal where the class-independent behaviour is (transport.go)
	expRM   int32  // sigRMs index of the export map, -1 none
	impRM   int32  // sigRMs index of the import map, -1 none
	acl     int32  // sigACLs index of u's egress ACL toward v, -1 none
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
	recs      []edgeRec    // per edge: its transport label
	contentOf []int32      // per shape: its content label's index in labels
	labels    []string     // the distinct content labels, numbered on first sight

	// sigRMs and sigACLs enumerate the policy objects whose class-dependent
	// behaviour a class fingerprint records — every route map on a live
	// session, every ACL on a live interface — ordered by the lowest NodeID
	// holding the namespace, then by name. The key is the configuration's,
	// not the live edges', so a link flap that keeps the set keeps the order,
	// and a successor can inherit the class signatures indexed by it
	// (adopt.go).
	sigRMs  []rmRef
	sigACLs []aclRef
	rmLists [][]*policy.PrefixList // per sigRMs entry: prefix lists matched, in clause/match order
	// matchRMs lists, ascending, the sigRMs entries with a prefix match: the
	// only maps whose relation can differ between classes, and the only ones
	// a fingerprint records.
	matchRMs []int32
	// guarded is the set of edges, one bit each, with an ACL or a map in
	// matchRMs: with the statics, the only labels that differ between classes
	// (verifyComposed). A bit per edge, not a list, because every apply's
	// successor builds one and few of them ever check a composed π.
	guarded []uint64
	// attrMatch reports that some sigRMs entry matches on something other
	// than the prefix (a community), so a route's fate can depend on how it
	// got there.
	attrMatch bool
	// lpNodes lists, ascending, the routers with an iBGP session or an
	// import map that sets a local preference: the only ones whose prefs can
	// exceed 1 for some class.
	lpNodes []topo.NodeID
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
// every link, as New builds it. matched is the erased community universe,
// which the content labels render route maps through (mapContentSig).
//
// A successor passes its predecessor's tables as prev, and fresh marks its
// routers that are not prev's. An edge prev has whose two routers are not
// fresh is carried: its session, OSPF adjacency and ACL are prev's, so they
// are not looked up by name, nor is its session's content label rendered
// again when sameMatched says prev rendered it through this matched set.
// Whatever is numbered is numbered as for any edge.
func newEdgeTables(g *topo.Graph, routers []*config.Router, matched map[protocols.Community]bool, prev *edgeTables, fresh []bool, sameMatched bool) *edgeTables {
	edges, rev := g.Edges(), g.ReverseEdges()
	n := len(edges)
	vec := make([]int32, 2*n)
	for i := range vec {
		vec[i] = -1
	}
	t := &edgeTables{
		g: g, edges: edges, rev: rev,
		shapeOf: vec[:n:n], ospfCost: vec[n:], ospfCross: make([]bool, n), recs: make([]edgeRec, n),
	}

	// u's own configuration on its interface toward v, per edge (u, v)
	// not carried; from[i] is edge i's index in prev if it is carried, else -1.
	var nbr []*config.Neighbor
	var ifc []config.OSPFIface
	var hasIfc []bool
	var from []int32
	if prev != nil {
		from = slices.Repeat([]int32{-1}, n)
	}
	aclIDs := make(map[aclRef]int32)
	for i, e := range edges {
		t.recs[i] = edgeRec{expRM: -1, impRM: -1, acl: -1}
		r, peer := routers[e.U], g.Name(e.V)
		a := aclRef{env: r.Env}
		if j, ok := prev.carries(e, fresh); ok {
			from[i] = j
			if k := prev.recs[j].acl; k >= 0 {
				a = prev.sigACLs[k]
			}
		} else {
			if nbr == nil {
				nbr, ifc, hasIfc = make([]*config.Neighbor, n), make([]config.OSPFIface, n), make([]bool, n)
			}
			if r.BGP != nil {
				nbr[i] = r.BGP.Neighbors[peer]
			}
			if r.OSPF != nil {
				ifc[i], hasIfc[i] = r.OSPF.Ifaces[peer]
			}
			a.name = r.IfaceACL[peer]
		}
		if a.name != "" {
			id, ok := aclIDs[a]
			if !ok {
				id = int32(len(t.sigACLs))
				aclIDs[a] = id
				t.sigACLs = append(t.sigACLs, a)
			}
			t.recs[i].acl = id
		}
	}

	// A session shape is its two route maps — as sigRMs indices, so the
	// only strings hashed are the names of maps that exist — and three
	// flags.
	type shapeKey struct {
		expRM, impRM                   int32
		ibgp, redistOSPF, redistStatic bool
	}
	shapeIDs := make(map[shapeKey]int32)
	var keys []shapeKey   // per shape
	var prevShape []int32 // per prev shape: its index here, -1 until met
	if prev != nil {
		prevShape = slices.Repeat([]int32{-1}, len(prev.shapes))
	}
	rmIDs := make(map[rmRef]int32)
	rmContent := make(map[rmRef]string)
	contentIDs := make(map[string]int32)
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
		// A carried edge's session and adjacency are prev's, as are its
		// reverse edge's: the two routers are.
		var sess bgpSession
		hasSess, ps := false, int32(-1)
		if prev != nil && from[i] >= 0 {
			if ps = prev.shapeOf[from[i]]; ps >= 0 {
				sess, hasSess = prev.shapes[ps], true
			}
			t.ospfCost[i], t.ospfCross[i] = prev.ospfCost[from[i]], prev.ospfCross[from[i]]
		} else {
			if nbr[i] != nil && nbr[j] != nil {
				ur, vr := routers[e.U], routers[e.V]
				sess, hasSess = bgpSession{
					expMap: nbr[j].ExportMap, impMap: nbr[i].ImportMap, ibgp: ur.BGP.ASN == vr.BGP.ASN,
					redistOSPF: vr.BGP.RedistributeOSPF, redistStatic: vr.BGP.RedistributeStatic,
				}, true
				if sess.expMap != "" {
					sess.expEnv = vr.Env
				}
				if sess.impMap != "" {
					sess.impEnv = ur.Env
				}
			}
			if hasIfc[i] && hasIfc[j] {
				t.ospfCost[i] = int32(max(ifc[i].Cost, 1))
				t.ospfCross[i] = ifc[i].Area != ifc[j].Area
			}
		}
		// The content label packs what transport compares of an edge before
		// a class is chosen: the session's content (flags and route-map
		// content, not names) above the OSPF cost and area-crossing bit.
		var label uint64
		if hasSess {
			s := int32(-1)
			if ps >= 0 {
				s = prevShape[ps]
			}
			if s < 0 {
				k := shapeKey{
					expRM: rmID(sess.expEnv, sess.expMap), impRM: rmID(sess.impEnv, sess.impMap),
					ibgp: sess.ibgp, redistOSPF: sess.redistOSPF, redistStatic: sess.redistStatic,
				}
				var ok bool
				if s, ok = shapeIDs[k]; !ok {
					var c int32
					lbl := ""
					if ps >= 0 && sameMatched {
						lbl = prev.labels[prev.contentOf[ps]]
						c, ok = contentIDs[lbl]
					} else {
						b := appendFlag(appendFlag(appendFlag(nil, sess.ibgp), sess.redistOSPF), sess.redistStatic)
						b = append(b, mapContentSig(rmContent, sess.expEnv, sess.expMap, matched)...)
						b = append(b, '/')
						b = append(b, mapContentSig(rmContent, sess.impEnv, sess.impMap, matched)...)
						if c, ok = contentIDs[string(b)]; !ok {
							lbl = string(b)
						}
					}
					if !ok {
						c = int32(len(t.labels))
						contentIDs[lbl] = c
						t.labels = append(t.labels, lbl)
					}
					s = int32(len(t.shapes))
					shapeIDs[k] = s
					keys = append(keys, k)
					t.shapes, t.contentOf = append(t.shapes, sess), append(t.contentOf, c)
				}
				if ps >= 0 {
					prevShape[ps] = s
				}
			}
			t.shapeOf[i], t.recs[i].expRM, t.recs[i].impRM = s, keys[s].expRM, keys[s].impRM
			label = uint64(t.contentOf[s]+1) << 33
		}
		if t.ospfCost[i] >= 0 {
			label |= uint64(t.ospfCost[i]) << 1
			if t.ospfCross[i] {
				label |= 1
			}
		}
		t.recs[i].content = mix64(label + 1) // a bijection: equal words, equal content
	}

	// The lowest NodeID holding each namespace the tables name.
	owner := make(map[*policy.Env]int, len(t.sigRMs)+len(t.sigACLs))
	for _, r := range t.sigRMs {
		owner[r.env] = len(routers)
	}
	for _, a := range t.sigACLs {
		owner[a.env] = len(routers)
	}
	for u, r := range routers {
		if o, ok := owner[r.Env]; ok && u < o {
			owner[r.Env] = u
		}
	}
	rmAt, aclAt := canonicalOrder(t.sigRMs, rmIDs, owner), canonicalOrder(t.sigACLs, aclIDs, owner)
	for i := range t.recs {
		r := &t.recs[i]
		r.expRM, r.impRM, r.acl = rmAt[r.expRM+1], rmAt[r.impRM+1], aclAt[r.acl+1]
	}

	// Per route map, the prefix lists its clauses match, in clause/match
	// order — the positions whose outcomes the class fingerprint records.
	t.rmLists = make([][]*policy.PrefixList, len(t.sigRMs))
	for i, r := range t.sigRMs {
		rm := r.env.RouteMaps[r.name]
		if rm == nil {
			continue
		}
		for ci := range rm.Clauses {
			for _, m := range rm.Clauses[ci].Matches {
				if m.Kind == policy.MatchPrefix {
					t.rmLists[i] = append(t.rmLists[i], r.env.PrefixLists[m.Arg])
				} else {
					t.attrMatch = true
				}
			}
		}
		if len(t.rmLists[i]) > 0 {
			t.matchRMs = append(t.matchRMs, int32(i))
		}
	}
	t.guarded = make([]uint64, (n+63)/64)
	for i, r := range t.recs {
		if r.acl >= 0 || r.expRM >= 0 && len(t.rmLists[r.expRM]) > 0 || r.impRM >= 0 && len(t.rmLists[r.impRM]) > 0 {
			t.guarded[i/64] |= 1 << (i % 64)
		}
	}

	setsLP := make([]bool, len(t.shapes))
	for si, sess := range t.shapes {
		setsLP[si] = sess.ibgp
		if rm := sess.impEnv; rm != nil && rm.RouteMaps[sess.impMap] != nil {
			for _, cl := range rm.RouteMaps[sess.impMap].Clauses {
				setsLP[si] = setsLP[si] || slices.ContainsFunc(cl.Sets, func(s policy.Set) bool { return s.Kind == policy.SetLocalPref })
			}
		}
	}
	for i, si := range t.shapeOf {
		if u := edges[i].U; si >= 0 && setsLP[si] && (len(t.lpNodes) == 0 || t.lpNodes[len(t.lpNodes)-1] != u) {
			t.lpNodes = append(t.lpNodes, u)
		}
	}
	return t
}

// carries reports the index in t, a predecessor's tables, of edge e of a
// successor whose routers fresh marks, if e is carried (newEdgeTables).
func (t *edgeTables) carries(e topo.Edge, fresh []bool) (int32, bool) {
	if t == nil || fresh[e.U] || fresh[e.V] {
		return -1, false
	}
	j, ok := t.g.EdgeIndex(e.U, e.V)
	return int32(j), ok
}

// canonicalOrder sorts refs by the lowest NodeID whose router holds the
// namespace, then by name; a router holds one namespace, so no two refs tie.
// ids gives each ref its index before the sort. It returns at, where
// at[i+1] is the new index of the ref that had index i and at[0] is -1, so
// that at[x+1] renumbers a reference x that may be -1 (none).
func canonicalOrder[R ~struct {
	env  *policy.Env
	name string
}](refs []R, ids map[R]int32, owner map[*policy.Env]int) (at []int32) {
	slices.SortFunc(refs, func(a, b R) int {
		x, y := rmRef(a), rmRef(b)
		return cmp.Or(cmp.Compare(owner[x.env], owner[y.env]), strings.Compare(x.name, y.name))
	})
	at = make([]int32, len(refs)+1)
	at[0] = -1
	for n, r := range refs {
		at[ids[r]+1] = int32(n)
	}
	return at
}
