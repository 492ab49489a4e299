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
//     signature; no policy is recompiled during adoption. A router the
//     delta edited is judged by the same label, compared across the two
//     Builders (labelEq): an edge of it whose label changed must be dead on
//     both sides, and every other edge is as it was. The one place a
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
	"slices"

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
	// shared is set when both Builders intern match outcomes in one table,
	// so that an id names one string in both (labelEq). inherit is set when
	// they also index class signatures by the same policy references, so a
	// class signature can be carried over (signature).
	shared, inherit bool
	// touched lists the routers whose edges labelEq judges (same NodeIDs in
	// both builders): the delta-edited ones and, when the erased universe
	// changed, the ends of every edge whose content label changed.
	touched []topo.NodeID
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
			ad.touched = append(ad.touched, u)
		}
	}
	// A content label renders route maps through its Builder's erased
	// universe, so a change there can relabel an untouched router's edges.
	if !slices.Equal(old.erasedUniverse, b.erasedUniverse) {
		for _, r := range d.runs {
			for k := range r.N {
				if !contentEq(old.tab, r.Old+k, b.tab, r.New+k) {
					e := b.tab.edges[r.New+k]
					ad.touched = append(ad.touched, e.U, e.V)
				}
			}
		}
	}
	slices.Sort(ad.touched)
	ad.touched = slices.Compact(ad.touched)
	ad.shared = b.shareIntern(old)
	ad.inherit = ad.shared && slices.Equal(old.tab.sigRMs, b.tab.sigRMs) && slices.Equal(old.tab.sigACLs, b.tab.sigACLs)
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

	sig2, err := ad.signature(cls, oldSig, carry)
	if err != nil {
		return outRefused
	}
	// Touched routers: an edge both Builders hold whose label changed must
	// have been dead for this class and stay dead (live carriers invalidate
	// it).
	for _, u := range ad.touched {
		lo, hi := b.tab.out(u)
		for o := lo; o < hi; o++ {
			for _, i := range [2]int32{o, b.tab.rev[o]} {
				e := b.tab.edges[i]
				j, ok := old.G.EdgeIndex(e.U, e.V)
				if !ok || ad.labelEq(oldSig, int32(j), sig2, i) {
					continue // added (the witness rule below decides), or unchanged
				}
				if entry.live.Has(j) || !key(e.U, e.V).Dead() {
					return outRefused
				}
			}
		}
	}

	// Removed live edges: the lost signature token must not have been the
	// last of its kind for either endpoint, witnessed by a *surviving*
	// equal-labeled live edge in the same bucket.
	for _, j := range ad.removed {
		if !entry.live.Has(int(j)) {
			continue
		}
		if !old.tab.witnessed(oldSig, entry.live, ad.removed, F, j) {
			return outRefused
		}
	}

	// Added edges: dead edges are invisible; a live added edge must land on
	// an abstract edge that already existed with the same label. With no
	// edge removed or added, both Builders hold one edge list and the
	// liveness set is shared: nothing writes one. Otherwise the runs carry
	// it across, a word at a time.
	live2 := entry.live
	if len(ad.removed)+len(ad.added) > 0 {
		live2 = topo.NewEdgeSet(len(b.tab.edges))
		for _, r := range ad.runs {
			live2.CopyRange(int(r.New), entry.live, int(r.Old), int(r.N))
		}
	}
	for _, i := range ad.added {
		e := b.tab.edges[i]
		if key(e.U, e.V).Dead() {
			continue
		}
		live2.Set(int(i))
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

// labelEq reports whether edge j of old under class signature os carries
// the label edge i of b carries under ns: what edgeEq compares, across the
// two Builders. Match outcomes compare as intern ids, so an edge with a
// prefix-matching map counts as changed unless both share one table.
func (ad *adoption) labelEq(os *classSig, j int32, ns *classSig, i int32) bool {
	ot, nt := ad.old.tab, ad.b.tab
	if !contentEq(ot, j, nt, i) {
		return false
	}
	ro, rn := &ot.recs[j], &nt.recs[i]
	// Equal content labels name a map on both sides or on neither, and
	// mark the same prefix matches.
	for _, rm := range [2][2]int32{{ro.expRM, rn.expRM}, {ro.impRM, rn.impRM}} {
		if rm[0] >= 0 && (os.fpIDs[rm[0]] != ns.fpIDs[rm[1]] || !ad.shared && len(ot.rmLists[rm[0]]) > 0) {
			return false
		}
	}
	permits := func(s *classSig, a int32) bool { return a < 0 || s.aclV[a] }
	return permits(os, ro.acl) == permits(ns, rn.acl) && os.statics.Has(int(j)) == ns.statics.Has(int(i))
}

// contentEq reports whether edge j of ot and edge i of nt have one content
// label. Each Builder numbers its own labels, so they compare as text.
func contentEq(ot *edgeTables, j int32, nt *edgeTables, i int32) bool {
	if ot.ospfCost[j] != nt.ospfCost[i] || ot.ospfCross[j] != nt.ospfCross[i] {
		return false
	}
	so, sn := ot.shapeOf[j], nt.shapeOf[i]
	if so < 0 || sn < 0 {
		return so == sn
	}
	return ot.labels[ot.contentOf[so]] == nt.labels[nt.contentOf[sn]]
}

// witnessed reports whether the token edge i = (u, v) carries under sig is
// not the last of its kind among t's live edges outside skip: some other
// live edge with an equal label runs out of u into v's group, and one into v
// from u's group. Adoption asks it of a removed edge on the predecessor's
// tables, skipping every removed edge, and of an added edge on the
// successor's, skipping every added one; skip is ascending.
func (t *edgeTables) witnessed(sig *classSig, live topo.EdgeSet, skip []int32, F []int, i int32) bool {
	e := t.edges[i]
	skipped := func(j int32) bool { _, ok := slices.BinarySearch(skip, j); return ok }
	has := func(from, to topo.NodeID, in bool) bool {
		lo, hi := t.out(from)
		for o := lo; o < hi; o++ {
			j := o
			if in {
				j = t.rev[o] // o is (from, w), j is (w, from)
			}
			if j != i && live.Has(int(j)) && F[t.edges[o].V] == F[to] && !skipped(j) && t.edgeEq(sig, sig, j, i) {
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
func (ad *adoption) install(cls ec.Class, sig *classSig, abs *core.Abstraction, live topo.EdgeSet, prefs []int, out outcome) outcome {
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
