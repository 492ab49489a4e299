// Incremental adoption: carrying compressed abstractions across a
// configuration delta. A long-lived engine that has compressed a network
// holds one cached partition per destination class; after a small change
// (link flap, policy edit, prefix add/remove) most of those partitions are
// still valid abstractions of the new network, and re-running Algorithm 1
// — or even re-deriving every class's edge keys — would redo work the
// cache already paid for.
//
// Two observations make adoption cheap and sound:
//
//  1. The refinement loop of internal/core computes signatures as *sets* of
//     (edge policy, neighbor group) tokens over *live* edges: multiplicities
//     are discarded and dead edges contribute nothing. A partition therefore
//     remains a valid effective abstraction as long as the stability
//     conditions hold under the new inputs — uniform policy per abstract
//     edge, ∀∃ coverage in both directions, self-loop freedom, destination
//     alone — and a delta perturbs those conditions only *at the edges and
//     routers it touches*. Removing a live edge (u, v) preserves stability
//     iff u keeps another surviving live edge with an equal label into v's
//     group and v keeps one from u's group (the lost token was not the last
//     of its kind); adding a live edge preserves stability iff it lands on
//     an abstract edge that already existed with the same label (the gained
//     token is not new to the group). Everything else is untouched, so the
//     validity check is O(degree) per changed edge, not O(E) per class.
//
//  2. Labels, not BDDs, decide equality. The transport machinery
//     (transport.go) already established that an edge's full label —
//     class-independent content plus per-class match outcomes and verdicts —
//     determines its compiled relation, its liveness, and its canonical key.
//     Comparing labels is integer comparison against the cached class
//     signature; no policy is recompiled during adoption. The one place a
//     BDD compiler is consulted is deciding liveness of an edge with no
//     surviving same-labeled sibling (a restored link, an edited map), where
//     the per-compiler relation cache amortises the cost across classes.
//
// A class failing any check is simply not adopted and recompresses from
// scratch on its next query — soundness never depends on *why* a check
// failed. The paper's correctness theorems (§4) hold for any abstraction
// satisfying the conditions, not just the coarsest one, so an adopted
// partition that a fresh run could merge further is still a correct
// (merely sub-minimal) abstraction. BGP case splitting (Theorem 4.4) adds
// conditions the local checks do not re-validate, so adoption is gated to
// classes whose routers hold a single local-preference value — the common
// case; preference-diverse classes always recompress.
package build

import (
	"context"
	"net/netip"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/faultinject"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// CachedAbstraction returns the completed cached abstraction for cls, if
// the deduplication cache holds one. It never computes anything beyond the
// class fingerprint.
func (b *Builder) CachedAbstraction(cls ec.Class) (*core.Abstraction, bool) {
	e, ok := b.cachedEntry(cls)
	if !ok {
		return nil, false
	}
	return e.abs, true
}

// cachedEntry looks up the completed cache entry for cls, consulting the
// prefix -> fingerprint memo before falling back to a fingerprint
// computation. An entry the store has evicted is simply absent — the class
// reads as cold, never as an error.
func (b *Builder) cachedEntry(cls ec.Class) (*absEntry, bool) {
	b.internMu.Lock()
	fp, ok := b.fpByPrefix[cls.Prefix]
	b.internMu.Unlock()
	if !ok {
		sig, err := b.classSignature(cls)
		if err != nil {
			return nil, false
		}
		fp = sig.fp
	}
	st := &b.store
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[fp]
	if !ok || !e.done || e.err != nil {
		return nil, false
	}
	st.lruTouch(e)
	return e, true
}

// UsesLocalPref reports whether any route map attached to a live session
// can set a BGP local preference, computed once per Builder. Networks
// without preference-setting policies have prefs(u) == 1 everywhere, which
// adoption relies on to skip re-validating the case-splitting conditions.
func (b *Builder) UsesLocalPref() bool {
	b.lpOnce.Do(func() {
		for _, ref := range b.tab.sigRMs {
			rm := ref.env.RouteMaps[ref.name]
			if rm == nil {
				continue
			}
			for ci := range rm.Clauses {
				for _, s := range rm.Clauses[ci].Sets {
					if s.Kind == policy.SetLocalPref {
						b.lpUsed = true
						return
					}
				}
			}
		}
	})
	return b.lpUsed
}

// AdoptStats reports what one AdoptFrom pass did.
type AdoptStats struct {
	// Adopted counts classes whose cached abstraction was carried across
	// the delta; Unchanged of those reused the old abstraction object
	// outright, Reassembled had their abstract graph rebuilt over the new
	// topology (same partition, fresh representatives).
	Adopted     int
	Unchanged   int
	Reassembled int
	// Invalidated counts cached classes the delta actually affected (they
	// recompress on their next query); InvalidatedPrefixes lists them.
	Invalidated         int
	InvalidatedPrefixes []string
	// NewClasses counts classes with no usable cache entry; Removed counts
	// pre-delta classes that no longer exist.
	NewClasses int
	Removed    int
}

// AdoptDelta tells AdoptFrom what the delta between the two builders
// touched beyond topology.
type AdoptDelta struct {
	// TouchedRouters names routers whose policies, statics or originated
	// prefixes the delta edited. Link-state-only deltas leave it empty.
	TouchedRouters []string
}

// AdoptFrom carries every still-valid cached abstraction of old — a
// Builder over the same router-name set — into b's cache, invalidating
// only the classes the delta actually affected. comp must be a compiler of
// b owned by the calling goroutine. It returns statistics and stops early
// (state consistent, remaining classes simply cold) when ctx is cancelled.
func (b *Builder) AdoptFrom(ctx context.Context, comp *policy.Compiler, old *Builder, delta AdoptDelta) (AdoptStats, error) {
	if !sameRouterNames(old, b) {
		// Node IDs are not comparable; nothing can be adopted.
		return ColdStats(old, b), nil
	}
	var st AdoptStats
	ad := newAdoption(b, old, delta)
	oldByPrefix := make(map[netip.Prefix]ec.Class, len(old.Classes()))
	for _, cls := range old.Classes() {
		oldByPrefix[cls.Prefix] = cls
	}
	for _, cls := range b.Classes() {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		oldCls, existed := oldByPrefix[cls.Prefix]
		delete(oldByPrefix, cls.Prefix)
		if !existed || !sameOrigins(oldCls, cls) {
			st.NewClasses++
			continue
		}
		entry, ok := old.cachedEntry(oldCls)
		if !ok {
			st.NewClasses++
			continue
		}
		switch ad.adoptClassSafe(comp, cls, entry) {
		case adoptUnchanged:
			st.Adopted++
			st.Unchanged++
		case adoptReassembled:
			st.Adopted++
			st.Reassembled++
		default:
			st.Invalidated++
			st.InvalidatedPrefixes = append(st.InvalidatedPrefixes, cls.Prefix.String())
		}
	}
	st.Removed = len(oldByPrefix)
	// One cross-tenant pressure pass per adoption sweep: installs above ran
	// under the store lock, so the shared pool (if b is attached) settles
	// here rather than per class.
	b.store.pressure()
	return st, nil
}

// ColdStats is the AdoptStats of a successor b that adopts nothing from
// old: every class of b is new, and Removed counts old's prefixes b no
// longer has.
func ColdStats(old, b *Builder) AdoptStats {
	kept := make(map[netip.Prefix]bool, len(b.Classes()))
	for _, cls := range b.Classes() {
		kept[cls.Prefix] = true
	}
	st := AdoptStats{NewClasses: len(b.Classes())}
	for _, cls := range old.Classes() {
		if !kept[cls.Prefix] {
			st.Removed++
		}
	}
	return st
}

// adoptClassSafe wraps adoptClass with the adopt.class injection seam and
// panic containment. Invalidating on panic is sound: an unadopted class is
// merely cold and recompresses from scratch on its next query, so a
// poisoned adoption check costs recomputation, never correctness or the
// process.
func (ad *adoption) adoptClassSafe(comp *policy.Compiler, cls ec.Class, entry *absEntry) (out adoptOutcome) {
	defer func() {
		if recover() != nil {
			out = adoptFailed
		}
	}()
	if faultinject.Active() {
		faultinject.Fire(faultinject.AdoptClass, cls.Prefix.String())
	}
	return ad.adoptClass(comp, cls, entry)
}

type adoptOutcome int

const (
	adoptFailed adoptOutcome = iota
	adoptUnchanged
	adoptReassembled
)

// adoption carries the per-Apply precomputed state shared by every class.
type adoption struct {
	b, old *Builder
	// removedIdx marks old edge indices whose edge is gone; addedIdx marks
	// new edge indices whose edge did not exist before. remap maps new edge
	// index -> old edge index (-1 for added edges).
	removedIdx []bool
	removed    []int32 // removed old edge indices
	addedIdx   []bool
	added      []int32 // added new edge indices
	remap      []int32
	// touched describes the delta-edited routers (same NodeIDs in both
	// builders).
	touched []touchedRouter
	lpGate  bool // either builder's policies can set local preferences
}

// touchedRouter is one delta-edited router with the class-independent part
// of its dirtiness precomputed.
type touchedRouter struct {
	u      topo.NodeID
	oldEnv *policy.Env
	// maps lists the router's session route-map names (import and export,
	// deduplicated); contentDirty marks those whose class-independent
	// content changed — their compiled relations may differ even for
	// classes with identical match outcomes.
	maps         []string
	contentDirty map[string]bool
	// structural is set when the router's sessions, interface-ACL
	// assignments or BGP presence changed shape — adoption then treats
	// every adjacent edge as dirty.
	structural bool
}

func edgeLess(a, b topo.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

func sameRouterNames(a, b *Builder) bool {
	if a.G.NumNodes() != b.G.NumNodes() {
		return false
	}
	for _, u := range a.G.Nodes() {
		if a.G.Name(u) != b.G.Name(u) {
			return false
		}
	}
	return true
}

func sameOrigins(a, b ec.Class) bool {
	if len(a.Origins) != len(b.Origins) {
		return false
	}
	for i := range a.Origins {
		if a.Origins[i] != b.Origins[i] {
			return false
		}
	}
	return true
}

func newAdoption(b, old *Builder, delta AdoptDelta) *adoption {
	ad := &adoption{
		b:          b,
		old:        old,
		removedIdx: make([]bool, len(old.tab.edges)),
		addedIdx:   make([]bool, len(b.tab.edges)),
		remap:      make([]int32, len(b.tab.edges)),
		lpGate:     old.UsesLocalPref() || b.UsesLocalPref(),
	}
	// Both edge lists are sorted by (U, V) — a linear merge classifies
	// every edge as shared, added or removed without hashing.
	newEdges, oldEdges := b.tab.edges, old.tab.edges
	i, j := 0, 0
	for i < len(newEdges) || j < len(oldEdges) {
		switch {
		case j >= len(oldEdges) || (i < len(newEdges) && edgeLess(newEdges[i], oldEdges[j])):
			ad.remap[i] = -1
			ad.addedIdx[i] = true
			ad.added = append(ad.added, int32(i))
			i++
		case i >= len(newEdges) || edgeLess(oldEdges[j], newEdges[i]):
			ad.removedIdx[j] = true
			ad.removed = append(ad.removed, int32(j))
			j++
		default:
			ad.remap[i] = int32(j)
			i++
			j++
		}
	}
	for _, name := range delta.TouchedRouters {
		if u, ok := b.G.Lookup(name); ok {
			ad.touched = append(ad.touched, ad.classifyRouter(u))
		}
	}
	return ad
}

// classifyRouter compares the class-independent configuration of router u
// between the two builders: which session route maps changed content, and
// whether the router's session or ACL shape changed at all.
func (ad *adoption) classifyRouter(u topo.NodeID) touchedRouter {
	oldR, newR := ad.old.routers[u], ad.b.routers[u]
	tr := touchedRouter{u: u, oldEnv: oldR.Env, contentDirty: make(map[string]bool)}
	if (oldR.BGP == nil) != (newR.BGP == nil) {
		tr.structural = true
		return tr
	}
	if len(oldR.IfaceACL) != len(newR.IfaceACL) {
		tr.structural = true
	}
	for peer, acl := range newR.IfaceACL {
		if oldR.IfaceACL[peer] != acl {
			tr.structural = true
		}
	}
	if newR.BGP != nil {
		if len(oldR.BGP.Neighbors) != len(newR.BGP.Neighbors) {
			tr.structural = true
		}
		oldCache := make(map[rmRef]string)
		newCache := make(map[rmRef]string)
		seen := make(map[string]bool)
		for peer, nb := range newR.BGP.Neighbors {
			oldNb := oldR.BGP.Neighbors[peer]
			if oldNb == nil || oldNb.ImportMap != nb.ImportMap || oldNb.ExportMap != nb.ExportMap {
				tr.structural = true
				continue
			}
			for _, m := range []string{nb.ImportMap, nb.ExportMap} {
				if m == "" || seen[m] {
					continue
				}
				seen[m] = true
				tr.maps = append(tr.maps, m)
				// Unerased: an edit to a tag no route map matches still
				// dirties the map, which is conservative.
				if mapContentSig(oldCache, oldR.Env, m, nil) != mapContentSig(newCache, newR.Env, m, nil) {
					tr.contentDirty[m] = true
				}
			}
		}
	}
	return tr
}

// adoptClass decides one class. entry is the old builder's completed cache
// entry for the same prefix and origins.
func (ad *adoption) adoptClass(comp *policy.Compiler, cls ec.Class, entry *absEntry) adoptOutcome {
	b, old := ad.b, ad.old
	abs := entry.abs
	if len(abs.F) != b.G.NumNodes() || entry.live == nil {
		return adoptFailed
	}
	// Local-preference gate: the local checks do not re-validate the ∀∀
	// and case-splitting conditions of Theorem 4.4.
	if ad.lpGate {
		if entry.prefs == nil {
			return adoptFailed
		}
		for _, p := range entry.prefs {
			if p > 1 {
				return adoptFailed
			}
		}
		for _, p := range b.prefsVec(cls) {
			if p > 1 {
				return adoptFailed
			}
		}
	}
	oldSig := entry.sig
	F := abs.F

	// A lazily-built edge-key function: only consulted for edges whose
	// liveness the cached data cannot determine (added links, edited
	// policies). The compiler's relation cache amortises those compiles
	// across classes.
	var keyFn func(u, v topo.NodeID) core.EdgeKey
	key := func(u, v topo.NodeID) core.EdgeKey {
		if keyFn == nil {
			keyFn = b.EdgeKeyFunc(comp, cls)
		}
		return keyFn(u, v)
	}

	// Touched-router checks: only the edges actually carrying an edited
	// object can change, and each of those must have been dead and stay
	// dead for this class (live carriers invalidate it).
	for _, tr := range ad.touched {
		if !ad.checkTouchedRouter(tr, cls, entry, key) {
			return adoptFailed
		}
	}

	// Removed live edges: the lost signature token must not have been the
	// last of its kind for either endpoint, witnessed by a *surviving*
	// equal-labeled live edge in the same bucket.
	for _, j := range ad.removed {
		if !entry.live[j] {
			continue
		}
		e := old.tab.edges[j]
		if !ad.survivingOutWitness(oldSig, entry.live, F, e, j) ||
			!ad.survivingInWitness(oldSig, entry.live, F, e, j) {
			return adoptFailed
		}
	}

	// Added edges: dead edges are invisible; a live added edge must land on
	// an abstract edge that already existed with the same label.
	live2 := make([]bool, len(b.tab.edges))
	for i, j := range ad.remap {
		if j >= 0 {
			live2[i] = entry.live[j]
		}
	}
	sig2, err := b.classSignature(cls)
	if err != nil {
		return adoptFailed
	}
	for _, i := range ad.added {
		e := b.tab.edges[i]
		if key(e.U, e.V).Dead() {
			continue
		}
		live2[i] = true
		if F[e.U] == F[e.V] {
			return adoptFailed // would create an abstract self loop
		}
		if !ad.addedWitness(sig2, live2, F, e, i) {
			return adoptFailed
		}
	}

	// The partition survives, and — because every lost or gained token had
	// a same-bucket witness — the abstract graph's edges are unchanged.
	// Reuse the old abstraction object outright when its representative
	// concrete edges all survive; otherwise re-assemble from the partition
	// (fresh representatives, no refinement).
	if ad.repEdgesSurvive(abs) {
		return ad.install(cls, sig2, abs, live2, entry.prefs, adoptUnchanged)
	}
	mode := core.ModeEffective
	if b.hasBGP {
		mode = core.ModeBGP
	}
	re := core.Assemble(b.G, abs.Dest, F, core.AssembleOptions{
		Mode:        mode,
		LiveEdges:   live2,
		Iterations:  abs.Iterations,
		ColorSplits: abs.ColorSplits,
	})
	return ad.install(cls, sig2, re, live2, entry.prefs, adoptReassembled)
}

// checkTouchedRouter verifies that a delta-edited router cannot change this
// class's compression inputs: every adjacent edge carrying an edited object
// (a route map with changed content or changed match outcomes, an ACL whose
// verdict flipped, an applicable static that appeared or vanished) was dead
// for the class and remains dead under the new configuration.
func (ad *adoption) checkTouchedRouter(tr touchedRouter, cls ec.Class, entry *absEntry, key func(u, v topo.NodeID) core.EdgeKey) bool {
	oldR, newR := ad.old.routers[tr.u], ad.b.routers[tr.u]
	dirtyMaps := make(map[string]bool)
	for _, m := range tr.maps {
		if tr.contentDirty[m] {
			dirtyMaps[m] = true
			continue
		}
		oldBits := appendPrefixFingerprint(nil, oldR.Env, m, cls.Prefix)
		newBits := appendPrefixFingerprint(nil, newR.Env, m, cls.Prefix)
		if string(oldBits) != string(newBits) {
			dirtyMaps[m] = true
		}
	}
	aclDirty := false
	for peer, acl := range newR.IfaceACL {
		if oldR.Env.ACLPermits(oldR.IfaceACL[peer], cls.Prefix) != newR.Env.ACLPermits(acl, cls.Prefix) {
			aclDirty = true
		}
	}
	staticsDirty := !staticSetEqual(oldR, newR, cls)

	t := ad.old.tab
	rmDirty := func(idx int32) bool {
		if idx < 0 {
			return false
		}
		r := t.sigRMs[idx]
		return r.env == tr.oldEnv && dirtyMaps[r.name]
	}
	edgeDirty := func(j int32, egress bool) bool {
		if tr.structural {
			return true
		}
		if rmDirty(t.recs[j].expRM) || rmDirty(t.recs[j].impRM) {
			return true
		}
		// The router's egress ACL and statics ride its outgoing edges.
		return egress && (aclDirty || staticsDirty)
	}
	lo, hi := t.out(tr.u)
	for i := lo; i < hi; i++ {
		for _, dir := range [2]struct {
			j      int32
			egress bool
		}{{i, true}, {t.rev[i], false}} {
			if !edgeDirty(dir.j, dir.egress) {
				continue
			}
			if entry.live[dir.j] {
				return false // a live edge's transfer function may change
			}
			if ad.removedIdx[dir.j] {
				continue // the delta also removed it; dead either way
			}
			e := t.edges[dir.j]
			if !key(e.U, e.V).Dead() {
				return false // a dead edge would come alive
			}
		}
	}
	return true
}

// staticSetEqual compares the two routers' statics applicable to the class.
func staticSetEqual(oldR, newR *config.Router, cls ec.Class) bool {
	type st struct {
		p   string
		via string
	}
	oldSt := make(map[st]bool)
	for _, s := range oldR.Statics {
		if staticCovers(s.Prefix, cls.Prefix) {
			oldSt[st{s.Prefix.String(), s.NextHop}] = true
		}
	}
	n := 0
	for _, s := range newR.Statics {
		if staticCovers(s.Prefix, cls.Prefix) {
			if !oldSt[st{s.Prefix.String(), s.NextHop}] {
				return false
			}
			n++
		}
	}
	return n == len(oldSt)
}

// survivingOutWitness reports whether u (of removed old edge e = (u, v))
// keeps a surviving live out-edge with an equal label into v's group.
func (ad *adoption) survivingOutWitness(sig *classSig, live []bool, F []int, e topo.Edge, j int32) bool {
	t := ad.old.tab
	lo, hi := t.out(e.U)
	for i := lo; i < hi; i++ {
		if i == j || ad.removedIdx[i] || !live[i] {
			continue
		}
		if F[t.edges[i].V] == F[e.V] && t.edgeEq(sig, sig, i, j) {
			return true
		}
	}
	return false
}

// survivingInWitness reports whether v (of removed old edge e = (u, v))
// keeps a surviving live in-edge with an equal label from u's group.
func (ad *adoption) survivingInWitness(sig *classSig, live []bool, F []int, e topo.Edge, j int32) bool {
	t := ad.old.tab
	lo, hi := t.out(e.V)
	for o := lo; o < hi; o++ {
		// o is (v, w); its reverse i is (w, v) — the in-edge direction.
		i := t.rev[o]
		if i == j || ad.removedIdx[i] || !live[i] {
			continue
		}
		if F[t.edges[o].V] == F[e.U] && t.edgeEq(sig, sig, i, j) {
			return true
		}
	}
	return false
}

// addedWitness reports whether added live new edge e = (u, v) lands on an
// already-covered abstract edge with an equal label: a surviving live edge
// (u, w) with w in v's group and the same label. Token sets are unchanged
// in that case, so the partition stays stable.
func (ad *adoption) addedWitness(sig *classSig, live []bool, F []int, e topo.Edge, i int32) bool {
	t := ad.b.tab
	lo, hi := t.out(e.U)
	for o := lo; o < hi; o++ {
		if o == i || ad.addedIdx[o] || !live[o] {
			continue
		}
		if F[t.edges[o].V] == F[e.V] && t.edgeEq(sig, sig, o, i) {
			// Out-token witnessed; the in-token needs a witness too.
			lo, hi := t.out(e.V)
			for o := lo; o < hi; o++ {
				in := t.rev[o] // o is (v, w), in is (w, v)
				if in == i || ad.addedIdx[in] || !live[in] {
					continue
				}
				if F[t.edges[o].V] == F[e.U] && t.edgeEq(sig, sig, in, i) {
					return true
				}
			}
			return false
		}
	}
	return false
}

// repEdgesSurvive reports whether every representative concrete edge of the
// abstraction still exists in the new topology (so RepEdge needs no
// rebuild).
func (ad *adoption) repEdgesSurvive(abs *core.Abstraction) bool {
	for _, rep := range abs.RepEdge {
		if !ad.b.G.HasEdge(rep.U, rep.V) {
			return false
		}
	}
	return true
}

// install records an adopted abstraction in b's store under sig. Adopted
// entries serve identity hits and future adoptions but are not symmetry
// transport seeds (their colour keys are left uncomputed to keep Apply
// fast), so they are evictable like any other entry — an evicted
// adoption recompresses on its next query.
func (ad *adoption) install(cls ec.Class, sig *classSig, abs *core.Abstraction, live []bool, prefs []int, out adoptOutcome) adoptOutcome {
	b := ad.b
	if faultinject.Active() {
		// The store.install seam lets tests shrink the budget (forcing
		// evictions) or panic mid-install while an apply is writing entries.
		faultinject.Fire(faultinject.StoreInstall, cls.Prefix.String())
	}
	e := &absEntry{ready: make(chan struct{}), sig: sig, fp: sig.fp, abs: abs, live: live, prefs: prefs, done: true, src: ProvAdopted}
	close(e.ready)
	st := &b.store
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.entries[sig.fp]; ok {
		// An identity-shared class already installed this fingerprint.
		return out
	}
	st.entries[sig.fp] = e
	st.adopted++
	st.account(e)
	st.evict()
	return out
}
