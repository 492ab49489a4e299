// Canonical edge keys: the per-edge transfer-function signatures consumed by
// the refinement loop (paper §5.1). BGP policies are compiled to canonical
// BDD relations so that policy equivalence is a handle comparison; the
// scalar protocol parts (OSPF cost/area, statics, redistribution, ACL
// verdicts) are folded in alongside.

package build

import (
	"net/netip"

	"bonsai/internal/bdd"
	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
	"bonsai/internal/topo"
)

// relEntry is one cached edge-policy compilation.
type relEntry struct {
	rel   bdd.Node
	drops bool
}

// relKey identifies an edge-policy compilation across both edges and
// destination classes: the composed relation is fully determined by the two
// route maps (identified by their namespace pointer plus name; a nil env
// marks the empty identity map), the session kind, and the prefix-list match
// outcomes against the class prefix. Symmetric edges carrying the same
// policy pair share one compilation, and across classes the same fingerprint
// shares it again — the amortisation the paper relies on when compressing
// ~1.3k classes of one network (§8).
type relKey struct {
	expEnv *policy.Env
	expMap string
	impEnv *policy.Env
	impMap string
	ibgp   bool
	fp     string
}

// synthKey identifies a composite policy signature: the BDD relation of the
// session plus the sender's redistribution behavior, which is part of the
// edge's transfer function (§6) but has no BDD encoding of its own.
type synthKey struct {
	rel          bdd.Node
	redistOSPF   bool
	redistStatic bool
}

// compilerCache holds the canonical tables attached to one policy.Compiler.
// A compiler is single-goroutine by contract, so the cache needs no lock of
// its own; only the Builder's compiler->cache map is mutex-guarded.
type compilerCache struct {
	rels  map[relKey]relEntry
	synth map[synthKey]bdd.Node
	// nextSynth allocates composite signature handles from the negative
	// range, which real BDD nodes (non-negative manager indices) never use,
	// so composites and plain relations can share EdgeKey.BGPRel.
	nextSynth bdd.Node
}

func newCompilerCache() *compilerCache {
	return &compilerCache{
		rels:  make(map[relKey]relEntry),
		synth: make(map[synthKey]bdd.Node),
	}
}

// withRedist maps a relation to the canonical composite signature for the
// sender's redistribution flags. Identity when nothing is redistributed.
func (cc *compilerCache) withRedist(rel bdd.Node, ospf, static bool) bdd.Node {
	if !ospf && !static {
		return rel
	}
	k := synthKey{rel, ospf, static}
	if n, ok := cc.synth[k]; ok {
		return n
	}
	cc.nextSynth--
	cc.synth[k] = cc.nextSynth
	return cc.nextSynth
}

// appendPrefixFingerprint renders the outcome of every prefix-list match a
// route map can perform against pfx. Together with the edge identity it
// uniquely determines the compiled relation, letting compilations be shared
// across destination classes; the class fingerprint of dedup.go reuses it to
// deduplicate whole abstractions.
func appendPrefixFingerprint(dst []byte, env *policy.Env, mapName string, pfx netip.Prefix) []byte {
	if mapName == "" {
		return append(dst, '-')
	}
	rm := env.RouteMaps[mapName]
	if rm == nil {
		return append(dst, '?')
	}
	for i := range rm.Clauses {
		for _, m := range rm.Clauses[i].Matches {
			if m.Kind != policy.MatchPrefix {
				continue
			}
			if l, ok := env.PrefixLists[m.Arg]; ok && l.Matches(pfx) {
				dst = append(dst, '1')
			} else {
				dst = append(dst, '0')
			}
		}
	}
	return dst
}

// edgeRelation compiles (or recalls) the canonical BGP relation of a
// session shape for the class prefix: v's export map composed with u's
// import map. Shapes arrive with the namespace of an empty map already nil
// (tables.go), which is what lets symmetric edges share one cache entry.
func (b *Builder) edgeRelation(comp *policy.Compiler, cc *compilerCache, sess *bgpSession, pfx netip.Prefix) relEntry {
	fp := appendPrefixFingerprint(make([]byte, 0, 32), sess.expEnv, sess.expMap, pfx)
	fp = append(fp, '|')
	fp = appendPrefixFingerprint(fp, sess.impEnv, sess.impMap, pfx)
	k := relKey{
		expEnv: sess.expEnv, expMap: sess.expMap,
		impEnv: sess.impEnv, impMap: sess.impMap,
		ibgp: sess.ibgp, fp: string(fp),
	}
	if ent, ok := cc.rels[k]; ok {
		return ent
	}
	var rel bdd.Node
	if sess.ibgp {
		rel = comp.CompileEdge(sess.expEnv, sess.expMap, sess.impEnv, sess.impMap, pfx)
	} else {
		rel = comp.CompileEdgeEBGP(sess.expEnv, sess.expMap, sess.impEnv, sess.impMap, pfx)
	}
	ent := relEntry{rel: rel, drops: comp.AlwaysDrops(rel)}
	cc.rels[k] = ent
	return ent
}

// EdgeKeyFunc returns the canonical edge-signature function for one
// destination class, backed by comp's BDD manager and its cross-class
// relation cache. The returned function must only be used from the
// goroutine owning comp.
func (b *Builder) EdgeKeyFunc(comp *policy.Compiler, cls ec.Class) func(u, v topo.NodeID) core.EdgeKey {
	cc := b.cacheFor(comp)
	t := b.tab
	statics := b.staticMask(cls)
	return func(u, v topo.NodeID) core.EdgeKey {
		k := core.EdgeKey{ACLPermit: b.aclPermit(u, v, cls)}
		i, ok := b.G.EdgeIndex(u, v)
		if !ok {
			return k
		}
		if si := t.shapeOf[i]; si >= 0 {
			sess := &t.shapes[si]
			ent := b.edgeRelation(comp, cc, sess, cls.Prefix)
			if !ent.drops {
				k.BGP = true
				k.IBGP = sess.ibgp
				k.BGPRel = cc.withRedist(ent.rel, sess.redistOSPF, sess.redistStatic)
			}
		}
		if c := t.ospfCost[i]; c >= 0 {
			k.OSPF = true
			k.OSPFCost = int(c)
			k.OSPFCross = t.ospfCross[i]
		}
		k.Static = statics.has(i)
		return k
	}
}

// EdgeKeyVec computes the canonical signatures of every directed edge for
// one destination class, aligned with b.G.Edges(). It produces exactly the
// keys EdgeKeyFunc would return, but derives them batch-wise: each distinct
// session shape is resolved through comp's relation cache once and each
// interface ACL is evaluated once — per-class cost is O(E) vector reads
// plus O(shapes + ACLs + statics) policy work. CompressFresh feeds the
// vector to core.Options.EdgeKeys; the callback form remains for sparse
// consumers (incremental adoption probes a handful of edges).
func (b *Builder) EdgeKeyVec(comp *policy.Compiler, cls ec.Class) []core.EdgeKey {
	cc := b.cacheFor(comp)
	t := b.tab
	keys := make([]core.EdgeKey, len(t.edges))
	type shapeRel struct {
		rel  bdd.Node
		live bool
		ibgp bool
	}
	rels := make([]shapeRel, len(t.shapes))
	for si := range t.shapes {
		sess := &t.shapes[si]
		ent := b.edgeRelation(comp, cc, sess, cls.Prefix)
		if !ent.drops {
			rels[si] = shapeRel{
				rel:  cc.withRedist(ent.rel, sess.redistOSPF, sess.redistStatic),
				live: true,
				ibgp: sess.ibgp,
			}
		}
	}
	aclV := make([]bool, len(t.sigACLs))
	for ai, a := range t.sigACLs {
		aclV[ai] = a.env.ACLPermits(a.name, cls.Prefix)
	}
	statics := b.staticMask(cls)
	for i := range keys {
		k := &keys[i]
		if si := t.shapeOf[i]; si >= 0 && rels[si].live {
			k.BGP = true
			k.IBGP = rels[si].ibgp
			k.BGPRel = rels[si].rel
		}
		if c := t.ospfCost[i]; c >= 0 {
			k.OSPF = true
			k.OSPFCost = int(c)
			k.OSPFCross = t.ospfCross[i]
		}
		k.ACLPermit = t.aclIdx[i] < 0 || aclV[t.aclIdx[i]]
		k.Static = statics.has(i)
	}
	return keys
}

// PrefsFunc returns prefs(u) for the class: the number of distinct BGP
// local-preference values node u can hold for this destination (Theorem
// 4.4's case-splitting bound). Because LOCAL_PREF is reset across eBGP
// sessions, the bound over eBGP is exactly the values settable by u's own
// import maps, plus the default whenever some session can deliver a route
// without overriding it. On iBGP sessions the sender's preference crosses:
// its export-map values count, and — since iBGP-learned routes are not
// re-advertised over iBGP (§6), so the sender's own preference is either
// import-assigned on an eBGP session or the default — a one-hop closure
// over the sender's eBGP import maps completes the bound without recursion.
func (b *Builder) PrefsFunc(cls ec.Class) func(u topo.NodeID) int {
	prefs := b.prefsVec(cls)
	return func(u topo.NodeID) int { return prefs[u] }
}

// prefsVec computes prefs(u) for every node (see PrefsFunc). Sessions are
// read through the shape tables by edge index and the value-set scratch map
// is reused across nodes, so the per-class cost is one pass over the live
// adjacency.
func (b *Builder) prefsVec(cls ec.Class) []int {
	prefs := make([]int, b.G.NumNodes())
	t := b.tab
	vals := make(map[uint32]bool)
	for u := range prefs {
		clear(vals)
		passthrough := false
		lo, hi := t.out(topo.NodeID(u))
		for i := lo; i < hi; i++ {
			si := t.shapeOf[i]
			if si < 0 {
				continue
			}
			sess := &t.shapes[si]
			sess.impEnv.LocalPrefValues(sess.impMap, cls.Prefix, vals)
			if !sess.impEnv.LocalPrefPassesThrough(sess.impMap, cls.Prefix) {
				continue
			}
			if !sess.ibgp {
				// eBGP: the import stage saw the default preference.
				passthrough = true
				continue
			}
			// iBGP: the export stage's value survives the session.
			sess.expEnv.LocalPrefValues(sess.expMap, cls.Prefix, vals)
			if !sess.expEnv.LocalPrefPassesThrough(sess.expMap, cls.Prefix) {
				continue
			}
			// The sender's RIB preference crosses untouched: union what its
			// own eBGP import maps can assign (iBGP-learned routes are not
			// re-advertised, and an originated route holds the default).
			senderDefault := false
			v := t.edges[i].V
			lo2, hi2 := t.out(v)
			for i2 := lo2; i2 < hi2; i2++ {
				si2 := t.shapeOf[i2]
				if si2 < 0 || t.shapes[si2].ibgp {
					continue
				}
				s2 := &t.shapes[si2]
				s2.impEnv.LocalPrefValues(s2.impMap, cls.Prefix, vals)
				if s2.impEnv.LocalPrefPassesThrough(s2.impMap, cls.Prefix) {
					senderDefault = true
				}
			}
			if senderDefault || originates(cls, b.G.Name(v)) {
				passthrough = true
			}
		}
		if passthrough {
			vals[protocols.DefaultLocalPref] = true
		}
		prefs[u] = max(len(vals), 1)
	}
	return prefs
}

// originates reports whether the named router is an origin of the class.
func originates(cls ec.Class, name string) bool {
	for _, o := range cls.Origins {
		if o == name {
			return true
		}
	}
	return false
}
