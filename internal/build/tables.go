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
	// guarded is the set of edges with an ACL or a map in matchRMs: with the
	// statics, the only labels that differ between classes (verifyComposed).
	// A set, not a list, because every apply's successor builds one and few
	// of them ever check a composed π.
	guarded topo.EdgeSet
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
func newEdgeTables(g *topo.Graph, routers []*config.Router, matched map[protocols.Community]bool) *edgeTables {
	t := newEdgeVectors(g)
	edges, rev := t.edges, t.rev
	n := len(edges)
	for i := range n {
		t.shapeOf[i], t.recs[i] = -1, edgeRec{expRM: -1, impRM: -1, acl: -1}
	}

	// u's own configuration on its interface toward v, per edge (u, v).
	nbr, ifc, hasIfc := make([]*config.Neighbor, n), make([]config.OSPFIface, n), make([]bool, n)
	aclIDs := make(map[aclRef]int32)
	for i, e := range edges {
		var a aclRef
		if nbr[i], ifc[i], hasIfc[i], a = toward(routers[e.U], g.Name(e.V)); a.name != "" {
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
	var keys []shapeKey // per shape
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
		if sess, ok := session(routers[e.U], routers[e.V], nbr[i], nbr[j]); ok {
			k := shapeKey{
				expRM: rmID(sess.expEnv, sess.expMap), impRM: rmID(sess.impEnv, sess.impMap),
				ibgp: sess.ibgp, redistOSPF: sess.redistOSPF, redistStatic: sess.redistStatic,
			}
			s, ok := shapeIDs[k]
			if !ok {
				// The content label: the session's flags and route-map
				// content, not names.
				b := appendFlag(appendFlag(appendFlag(nil, sess.ibgp), sess.redistOSPF), sess.redistStatic)
				b = append(b, mapContentSig(rmContent, sess.expEnv, sess.expMap, matched)...)
				b = append(b, '/')
				b = append(b, mapContentSig(rmContent, sess.impEnv, sess.impMap, matched)...)
				c, ok := contentIDs[string(b)]
				if !ok {
					lbl := string(b)
					c = int32(len(t.labels))
					contentIDs[lbl] = c
					t.labels = append(t.labels, lbl)
				}
				s = int32(len(t.shapes))
				shapeIDs[k] = s
				keys = append(keys, k)
				t.shapes, t.contentOf = append(t.shapes, sess), append(t.contentOf, c)
			}
			t.shapeOf[i], t.recs[i].expRM, t.recs[i].impRM = s, keys[s].expRM, keys[s].impRM
		}
		t.ospfCost[i], t.ospfCross[i] = adjacency(ifc[i], ifc[j], hasIfc[i] && hasIfc[j])
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
	t.derive()
	return t
}

// newEdgeVectors allocates the per-edge vectors over g's edges, unset.
func newEdgeVectors(g *topo.Graph) *edgeTables {
	n := g.NumEdges()
	vec := make([]int32, 2*n)
	return &edgeTables{
		g: g, edges: g.Edges(), rev: g.ReverseEdges(),
		shapeOf: vec[:n:n], ospfCost: vec[n:], ospfCross: make([]bool, n), recs: make([]edgeRec, n),
	}
}

// toward looks up r's own configuration on its interface toward peer: the
// neighbor statement, the OSPF interface if any, and the interface's ACL.
func toward(r *config.Router, peer string) (nbr *config.Neighbor, ifc config.OSPFIface, hasIfc bool, acl aclRef) {
	if r.BGP != nil {
		nbr = r.BGP.Neighbors[peer]
	}
	if r.OSPF != nil {
		ifc, hasIfc = r.OSPF.Ifaces[peer]
	}
	return nbr, ifc, hasIfc, aclRef{env: r.Env, name: r.IfaceACL[peer]}
}

// adjacency is the OSPF cost and area-crossing bit of edge (u, v) from u's
// interface toward v, iu, and v's toward u, iv, when both exist; the cost is
// -1 without an adjacency.
func adjacency(iu, iv config.OSPFIface, both bool) (int32, bool) {
	if !both {
		return -1, false
	}
	return int32(max(iu.Cost, 1)), iu.Area != iv.Area
}

// session pairs the neighbor statements of edge (u, v)'s two ends — u's
// toward v, nu, and v's toward u, nv — into the edge's BGP session, if both
// exist.
func session(ur, vr *config.Router, nu, nv *config.Neighbor) (bgpSession, bool) {
	if nu == nil || nv == nil {
		return bgpSession{}, false
	}
	s := bgpSession{
		expMap: nv.ExportMap, impMap: nu.ImportMap, ibgp: ur.BGP.ASN == vr.BGP.ASN,
		redistOSPF: vr.BGP.RedistributeOSPF, redistStatic: vr.BGP.RedistributeStatic,
	}
	if s.expMap != "" {
		s.expEnv = vr.Env
	}
	if s.impMap != "" {
		s.impEnv = ur.Env
	}
	return s, true
}

// derive fills, in one pass over integers, what follows from the per-edge
// vectors and the interned tables: each edge's content label, guarded and
// lpNodes.
func (t *edgeTables) derive() {
	t.guarded = topo.NewEdgeSet(len(t.recs))
	for i := range t.recs {
		// The content label packs what transport compares of an edge before
		// a class is chosen: the session's content (flags and route-map
		// content, not names) above the OSPF cost and area-crossing bit.
		r := &t.recs[i]
		var label uint64
		if s := t.shapeOf[i]; s >= 0 {
			label = uint64(t.contentOf[s]+1) << 33
		}
		if t.ospfCost[i] >= 0 {
			label |= uint64(t.ospfCost[i]) << 1
			if t.ospfCross[i] {
				label |= 1
			}
		}
		r.content = mix64(label + 1) // a bijection: equal words, equal content
		if r.acl >= 0 || r.expRM >= 0 && len(t.rmLists[r.expRM]) > 0 || r.impRM >= 0 && len(t.rmLists[r.impRM]) > 0 {
			t.guarded.Set(i)
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
		if u := t.edges[i].U; si >= 0 && setsLP[si] && (len(t.lpNodes) == 0 || t.lpNodes[len(t.lpNodes)-1] != u) {
			t.lpNodes = append(t.lpNodes, u)
		}
	}
}

// successor derives the tables of a successor over g from t, its
// predecessor's, through the edge diff d: the runs' per-edge vectors are
// copied, an edge d added or one at a router fresh marks is looked up by
// name, and t's interned tables are shared, shapes and labels renumbered
// where a first sight moved. No router's namespace changed, so t's content
// labels and canonical orders hold. It returns nil, for newEdgeTables'
// sweep, when the interned sets differ: a named edge has a session or ACL t
// lacks, or one of t's shapes or ACLs is left on no edge.
func (t *edgeTables) successor(g *topo.Graph, routers []*config.Router, fresh []bool, d *edgeDiff) *edgeTables {
	s := newEdgeVectors(g)
	for _, r := range d.runs {
		copy(s.shapeOf[r.New:r.New+r.N], t.shapeOf[r.Old:r.Old+r.N])
		copy(s.ospfCost[r.New:r.New+r.N], t.ospfCost[r.Old:r.Old+r.N])
		copy(s.ospfCross[r.New:r.New+r.N], t.ospfCross[r.Old:r.Old+r.N])
		copy(s.recs[r.New:r.New+r.N], t.recs[r.Old:r.Old+r.N])
	}
	// Every edge is in a run or added, so the vectors are now whole; an
	// edge is looked up by name when d added it or, in both directions, when
	// it leaves a fresh router.
	named := slices.Clone(d.added)
	for u, f := range fresh {
		lo, hi := s.out(topo.NodeID(u))
		for i := lo; f && i < hi; i++ {
			named = append(named, i, s.rev[i])
		}
	}
	for _, i := range named {
		if !t.named(s, i, routers) {
			return nil
		}
	}

	// Shapes are numbered on first sight along the edge list, labels on
	// first sight along the shapes: at maps t's shape numbers to s's.
	at := slices.Repeat([]int32{-1}, len(t.shapes))
	acls := make([]bool, len(t.sigACLs))
	next, moved := int32(0), false
	for i, p := range s.shapeOf {
		if p >= 0 && at[p] < 0 {
			at[p], moved = next, moved || p != next
			next++
		}
		if a := s.recs[i].acl; a >= 0 {
			acls[a] = true
		}
	}
	if int(next) < len(t.shapes) || slices.Contains(acls, false) {
		return nil
	}
	s.shapes, s.contentOf, s.labels = slices.Clip(t.shapes), slices.Clip(t.contentOf), slices.Clip(t.labels)
	if moved {
		s.shapes, s.contentOf, s.labels = make([]bgpSession, len(at)), make([]int32, len(at)), make([]string, 0, len(t.labels))
		for p, q := range at {
			s.shapes[q], s.contentOf[q] = t.shapes[p], t.contentOf[p]
		}
		lat := slices.Repeat([]int32{-1}, len(t.labels))
		for q, l := range s.contentOf {
			if lat[l] < 0 {
				lat[l] = int32(len(s.labels))
				s.labels = append(s.labels, t.labels[l])
			}
			s.contentOf[q] = lat[l]
		}
		for i, p := range s.shapeOf {
			if p >= 0 {
				s.shapeOf[i] = at[p]
			}
		}
	}
	s.sigRMs, s.sigACLs, s.rmLists, s.matchRMs, s.attrMatch = slices.Clip(t.sigRMs), slices.Clip(t.sigACLs), slices.Clip(t.rmLists), slices.Clip(t.matchRMs), t.attrMatch
	s.derive()
	return s
}

// named looks edge i of s up by name as newEdgeTables does, numbering its
// session, maps and ACL by t's tables. It reports false when t lacks the
// session or the ACL.
func (t *edgeTables) named(s *edgeTables, i int32, routers []*config.Router) bool {
	e := s.edges[i]
	ur, vr := routers[e.U], routers[e.V]
	nu, iu, hu, a := toward(ur, s.g.Name(e.V))
	nv, iv, hv, _ := toward(vr, s.g.Name(e.U))
	s.shapeOf[i], s.recs[i] = -1, edgeRec{expRM: -1, impRM: -1, acl: -1}
	if a.name != "" {
		if s.recs[i].acl = int32(slices.Index(t.sigACLs, a)); s.recs[i].acl < 0 {
			return false
		}
	}
	if sess, ok := session(ur, vr, nu, nv); ok {
		if s.shapeOf[i] = int32(slices.Index(t.shapes, sess)); s.shapeOf[i] < 0 {
			return false
		}
		// t interned a shape's maps with it.
		s.recs[i].expRM = int32(slices.Index(t.sigRMs, rmRef{sess.expEnv, sess.expMap}))
		s.recs[i].impRM = int32(slices.Index(t.sigRMs, rmRef{sess.impEnv, sess.impMap}))
	}
	s.ospfCost[i], s.ospfCross[i] = adjacency(iu, iv, hu && hv)
	return true
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
