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
	"maps"
	"net/netip"
	"slices"

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

// cachedEntry looks up the completed cache entry for cls by its
// fingerprint (ClassFingerprint: the memo, else a signature). An entry the
// store has evicted is simply absent — the class reads as cold, never as an
// error.
func (b *Builder) cachedEntry(cls ec.Class) (*absEntry, bool) {
	fp, err := b.ClassFingerprint(cls)
	if err != nil {
		return nil, false
	}
	return b.entryAt(fp)
}

// entryAt looks up the completed cache entry under fingerprint fp.
func (b *Builder) entryAt(fp string) (*absEntry, bool) {
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

// AdoptStats reports what one AdoptFrom pass did, served as
// bonsai.AdoptStats. Adopted counts classes whose cached abstraction was
// carried across the delta; Unchanged of those reused the old abstraction
// object outright, Reassembled had their abstract graph rebuilt over the new
// topology (same partition, fresh representatives, no refinement).
// Invalidated counts cached classes the delta actually affected (they
// recompress on their next query), InvalidatedPrefixes lists them;
// NewClasses counts classes with no usable cache entry, RemovedClasses
// pre-delta classes that no longer exist.
type AdoptStats struct {
	Adopted             int      `json:"adopted"`
	Unchanged           int      `json:"unchanged"`
	Reassembled         int      `json:"reassembled"`
	Invalidated         int      `json:"invalidated"`
	InvalidatedPrefixes []string `json:"invalidated_prefixes,omitempty"`
	NewClasses          int      `json:"new_classes"`
	RemovedClasses      int      `json:"removed_classes"`
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
// b owned by the calling goroutine, and b must not yet serve queries. It
// returns statistics and stops early (state consistent, remaining classes
// simply cold) when ctx is cancelled.
func (b *Builder) AdoptFrom(ctx context.Context, comp *policy.Compiler, old *Builder, delta AdoptDelta) (AdoptStats, error) {
	var ad *adoption
	if sameRouterNames(old, b) { // else node IDs are not comparable: nothing is adopted
		b.inheritClasses(old)
		ad = newAdoption(b, old, delta)
	}
	return b.adopt(ctx, comp, old, ad)
}

// ColdStats is the AdoptStats of a successor b that adopts nothing from
// old: every class of b is new, and RemovedClasses counts old's prefixes b
// no longer has.
func ColdStats(old, b *Builder) AdoptStats {
	st, _ := b.adopt(context.Background(), nil, old, nil)
	return st
}

// adopt decides every class of b, folding its outcome into the pass's tally:
// a class with no cached entry of old under the same prefix and origins is
// new, and so is every class when ad is nil.
func (b *Builder) adopt(ctx context.Context, comp *policy.Compiler, old *Builder, ad *adoption) (AdoptStats, error) {
	var n tally
	var invalidated []string
	oldByPrefix := make(map[netip.Prefix]ec.Class, len(old.Classes()))
	for _, cls := range old.Classes() {
		oldByPrefix[cls.Prefix] = cls
	}
	for _, cls := range b.Classes() {
		if err := ctx.Err(); err != nil {
			return n.adoptStats(invalidated, 0), err
		}
		oldCls, existed := oldByPrefix[cls.Prefix]
		delete(oldByPrefix, cls.Prefix)
		var entry *absEntry
		carry := false
		if ad != nil && existed && slices.Equal(oldCls.Origins, cls.Origins) {
			entry, carry = ad.oldEntry(cls)
		}
		if entry == nil {
			n[outNew]++
			continue
		}
		out := ad.adoptClass(comp, cls, entry, carry)
		n[out]++
		if out == outRefused {
			invalidated = append(invalidated, cls.Prefix.String())
		}
	}
	// One cross-tenant pressure pass per adoption sweep: installs above ran
	// under the store lock, so the shared pool (if b is attached) settles
	// here rather than per class.
	b.store.pressure()
	return n.adoptStats(invalidated, len(oldByPrefix)), nil
}

// adoptStats sums a pass's tally. A class whose fingerprint an identity-
// shared class already installed counts here, not in the store's tally.
func (n *tally) adoptStats(invalidated []string, removed int) AdoptStats {
	return AdoptStats{
		Adopted:             int(n[outUnchanged] + n[outReassembled]),
		Unchanged:           int(n[outUnchanged]),
		Reassembled:         int(n[outReassembled]),
		Invalidated:         int(n[outRefused]),
		InvalidatedPrefixes: invalidated,
		NewClasses:          int(n[outNew]),
		RemovedClasses:      removed,
	}
}

// adoption carries the per-Apply precomputed state shared by every class.
type adoption struct {
	b, old    *Builder
	*edgeDiff // from old to b
	// inherit is set when both Builders index class signatures by the same
	// policy references and share one intern table, so a class signature
	// can be carried over (signature).
	inherit bool
	// touched describes the delta-edited routers (same NodeIDs in both
	// builders).
	touched []touchedRouter
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

// edgeDiff is how a successor's edges differ from those of from, the
// Builder it was derived from (topo.Graph.Diff).
type edgeDiff struct {
	from           uint64 // from's id
	runs           []topo.Run
	removed, added []int32
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

func newAdoption(b, old *Builder, delta AdoptDelta) *adoption {
	d := b.diff
	if d == nil || d.from != old.id {
		d = &edgeDiff{}
		d.runs, d.removed, d.added = b.G.Diff(old.G, nil)
	}
	ad := &adoption{b: b, old: old, edgeDiff: d}
	// b, which holds nothing yet, will hold about as many signatures and
	// entries as old: size its memo and store for them.
	old.intern.mu.Lock()
	b.fpByPrefix = make(map[netip.Prefix]string, len(old.fpByPrefix))
	old.intern.mu.Unlock()
	old.store.mu.Lock()
	b.store.entries = make(map[string]*absEntry, len(old.store.entries))
	old.store.mu.Unlock()
	for _, name := range delta.TouchedRouters {
		if u, ok := b.G.Lookup(name); ok {
			ad.touched = append(ad.touched, ad.classifyRouter(u))
		}
	}
	ad.inherit = slices.Equal(old.tab.sigRMs, b.tab.sigRMs) && slices.Equal(old.tab.sigACLs, b.tab.sigACLs) && b.shareIntern(old)
	return ad
}

// shareIntern points b at old's match-outcome intern table, so that an id
// names one string in both — also one old interns while b adopts, as old
// still serves queries — and a signature b inherits holds the ids b would
// intern. b must have interned nothing and must not yet serve queries; old's
// table must be no larger than a fresh one could be for old's classes (one
// string per class and prefix-matching map), or a chain of successors would
// keep every outcome string it met. It reports whether b and old share one.
func (b *Builder) shareIntern(old *Builder) bool {
	if b.intern != old.intern && b.intern.size() == 0 && old.intern.size() <= len(old.Classes())*len(old.tab.matchRMs) {
		b.intern = old.intern
	}
	return b.intern == old.intern
}

// inheritClasses hands b old's class index when every router originates
// exactly what it did: the index is a function of the originated prefixes
// alone (ec.NewIndex), so enumerating it again would rebuild old's.
func (b *Builder) inheritClasses(old *Builder) {
	for u, r := range b.routers {
		if o := old.routers[u]; o != r && !slices.Equal(o.Originate, r.Originate) {
			return
		}
	}
	b.classesOnce.Do(func() { b.classIdx = old.classIndex() })
}

// signature returns b's signature of cls, whose predecessor signature is
// old: old itself, less the private colour key, when it carries (oldEntry),
// else computed afresh.
func (ad *adoption) signature(cls ec.Class, old *classSig, carry bool) (*classSig, error) {
	if !carry {
		return ad.b.classSignature(cls)
	}
	s := *old
	s.key, s.col = 0, nil
	ad.b.intern.mu.Lock()
	ad.b.fpByPrefix[cls.Prefix] = s.fp
	ad.b.intern.mu.Unlock()
	return &s, nil
}

// oldEntry returns old's completed cache entry for cls, whose origins are
// old's, and decides once whether the class's signature carries across to
// b: both Builders index signatures by the same policy references and share
// their intern ids (inherit), and no static applies to the class on either
// side — on old's, as its signature of the class records. A class old never
// fingerprinted would have its signature computed on old, a Builder about to
// be dropped, and then again on b; when it carries, it is computed once, on
// b, which keeps it, and old's store is probed with b's fingerprint.
func (ad *adoption) oldEntry(cls ec.Class) (*absEntry, bool) {
	old, b := ad.old, ad.b
	old.intern.mu.Lock()
	_, known := old.fpByPrefix[cls.Prefix]
	old.intern.mu.Unlock()
	if known || !ad.inherit || old.staticMask(cls) != nil || b.staticMask(cls) != nil {
		e, _ := old.cachedEntry(cls)
		return e, e != nil && ad.inherit && e.sig.statics == nil && b.staticMask(cls) == nil
	}
	sig, err := b.classSignature(cls)
	if err != nil {
		return nil, false
	}
	e, _ := old.entryAt(sig.fp)
	return e, e != nil
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
	if !maps.Equal(oldR.IfaceACL, newR.IfaceACL) {
		tr.structural = true
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

// adoptClass decides one class: outUnchanged, outReassembled or outRefused.
// entry is the old builder's completed cache entry for the same prefix and
// origins, and carry says whether the class's signature carries across. A
// panic in a check, or at the adopt.class injection seam, refuses the class,
// which is sound: an unadopted class is merely cold and recompresses from
// scratch on its next query, so a poisoned check costs recomputation, never
// correctness or the process.
func (ad *adoption) adoptClass(comp *policy.Compiler, cls ec.Class, entry *absEntry, carry bool) (out outcome) {
	defer func() {
		if recover() != nil {
			out = outRefused
		}
	}()
	if faultinject.Active() {
		faultinject.Fire(faultinject.AdoptClass, cls.Prefix.String())
	}
	b, old := ad.b, ad.old
	abs := entry.abs
	if len(abs.F) != b.G.NumNodes() || entry.live == nil {
		return outRefused
	}
	// The local checks do not re-validate the ∀∀ and case-splitting
	// conditions of Theorem 4.4, so the class must hold one local
	// preference on both sides.
	if !old.singlePref(cls) || !b.singlePref(cls) {
		return outRefused
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
			return outRefused
		}
	}

	// Removed live edges: the lost signature token must not have been the
	// last of its kind for either endpoint, witnessed by a *surviving*
	// equal-labeled live edge in the same bucket.
	for _, j := range ad.removed {
		if !entry.live[j] {
			continue
		}
		if !old.tab.witnessed(oldSig, entry.live, ad.removed, F, j) {
			return outRefused
		}
	}

	// Added edges: dead edges are invisible; a live added edge must land on
	// an abstract edge that already existed with the same label.
	live2 := make([]bool, len(b.tab.edges))
	for _, r := range ad.runs {
		copy(live2[r.New:r.New+r.N], entry.live[r.Old:r.Old+r.N])
	}
	sig2, err := ad.signature(cls, oldSig, carry)
	if err != nil {
		return outRefused
	}
	for _, i := range ad.added {
		e := b.tab.edges[i]
		if key(e.U, e.V).Dead() {
			continue
		}
		live2[i] = true
		if F[e.U] == F[e.V] {
			return outRefused // would create an abstract self loop
		}
		if !b.tab.witnessed(sig2, live2, ad.added, F, i) {
			return outRefused
		}
	}

	// The partition survives, and — because every lost or gained token had
	// a same-bucket witness — the abstract graph's edges are unchanged.
	// Reuse the old abstraction object outright when its representative
	// concrete edges all survive; otherwise re-assemble from the partition
	// (fresh representatives, no refinement).
	if ad.repEdgesSurvive(abs) {
		return ad.install(cls, sig2, abs, live2, entry.prefs, outUnchanged)
	}
	re := core.Assemble(b.G, abs.Dest, F, core.AssembleOptions{
		Mode:        b.mode(),
		LiveEdges:   live2,
		Iterations:  abs.Iterations,
		ColorSplits: abs.ColorSplits,
	})
	return ad.install(cls, sig2, re, live2, entry.prefs, outReassembled)
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
			if _, gone := slices.BinarySearch(ad.removed, dir.j); gone {
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

// witnessed reports whether the token edge i = (u, v) carries under sig is
// not the last of its kind among t's live edges outside skip: some other
// live edge with an equal label runs out of u into v's group, and one into v
// from u's group. Adoption asks it of a removed edge on the predecessor's
// tables, skipping every removed edge, and of an added edge on the
// successor's, skipping every added one; skip is ascending.
func (t *edgeTables) witnessed(sig *classSig, live []bool, skip []int32, F []int, i int32) bool {
	e := t.edges[i]
	skipped := func(j int32) bool { _, ok := slices.BinarySearch(skip, j); return ok }
	has := func(from, to topo.NodeID, in bool) bool {
		lo, hi := t.out(from)
		for o := lo; o < hi; o++ {
			j := o
			if in {
				j = t.rev[o] // o is (from, w), j is (w, from)
			}
			if j != i && live[j] && F[t.edges[o].V] == F[to] && !skipped(j) && t.edgeEq(sig, sig, j, i) {
				return true
			}
		}
		return false
	}
	return has(e.U, e.V, false) && has(e.V, e.U, true)
}

// repEdgesSurvive reports whether every representative concrete edge of the
// abstraction, an edge of old, still exists in the new topology (so RepEdge
// needs no rebuild): whether the delta removed none of them.
func (ad *adoption) repEdgesSurvive(abs *core.Abstraction) bool {
	if len(ad.removed) == 0 {
		return true
	}
	for _, rep := range abs.RepEdge {
		j, ok := ad.old.G.EdgeIndex(rep.U, rep.V)
		if _, gone := slices.BinarySearch(ad.removed, int32(j)); !ok || gone {
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
func (ad *adoption) install(cls ec.Class, sig *classSig, abs *core.Abstraction, live []bool, prefs []int, out outcome) outcome {
	if faultinject.Active() {
		// The store.install seam lets tests shrink the budget (forcing
		// evictions) or panic mid-install while an apply is writing entries.
		faultinject.Fire(faultinject.StoreInstall, cls.Prefix.String())
	}
	st := &ad.b.store
	st.mu.Lock()
	defer st.mu.Unlock()
	// An identity-shared class may already have installed this fingerprint.
	if st.admit(&absEntry{ready: closed, sig: sig, fp: sig.fp, abs: abs, live: live, prefs: prefs, out: out}) {
		st.tally[out]++
	}
	return out
}
