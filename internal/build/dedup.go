// Cross-EC abstraction deduplication. The paper's evaluation networks are
// highly regular, and compression only ever looks at a destination class
// through the canonical edge keys and prefs, so the Builder avoids redundant
// refinement work at two levels:
//
//  1. Identity: classes whose class-dependent inputs are byte-identical
//     (same destination, origins, statics, prefix-list match outcomes, ACL
//     verdicts) share one *core.Abstraction outright — e.g. the several
//     prefixes each datacenter leaf originates.
//
//  2. Symmetry: classes related by a relabeling of the routers (fattree's
//     per-edge-router classes, ring rotations, mesh stars) are served by
//     transporting a cached partition through an explicitly verified
//     permutation π — see transport.go.
//
// The class fingerprint deliberately avoids compiling anything. Everything
// class-dependent in the pipeline reduces to: the destination vertex and
// origin set; the set of edges carrying an applicable static route; per
// session route map, the outcome of every prefix-list match against the
// class prefix (this determines the compiled BDD relation, AlwaysDrops,
// LocalPrefValues and LocalPrefPassesThrough, because MatchPrefix is the
// only prefix-dependent match kind); and per interface ACL, its verdict.
// Everything else (sessions, iBGP flags, redistribution, OSPF costs/areas)
// is class-independent. The cost per class is O(route maps + ACLs + statics
// + E), orders of magnitude below one refinement run.
package build

import (
	"context"
	"errors"

	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// Provenance reports where a Compress result came from: computed by full
// refinement, transported through a verified symmetry, served from the
// identity cache, or carried across an incremental update. The streaming
// API surfaces it per class.
type Provenance uint8

// Provenance values.
const (
	ProvCached Provenance = iota
	ProvFresh
	ProvTransported
	ProvAdopted
)

func (p Provenance) String() string {
	switch p {
	case ProvFresh:
		return "fresh"
	case ProvTransported:
		return "transported"
	case ProvAdopted:
		return "adopted"
	default:
		return "cache"
	}
}

// absEntry is one single-flight slot of the abstraction store: the first
// worker to claim a fingerprint computes (or transports) the abstraction
// while later workers block on ready and share the result. Every successful
// entry carries its liveness and prefs vectors — fresh entries use them to
// seed future symmetry transports, and incremental updates (adopt.go) use
// them to carry entries across a configuration delta without BDD work.
// Completed entries are byte-accounted and LRU-chained by the bounded
// store (store.go); pinned transport seeds are exempt from eviction.
type absEntry struct {
	ready chan struct{}
	abs   *core.Abstraction
	err   error

	fp    string
	sig   *classSig
	live  []bool // per edge index, aligned with Builder.G.Edges()
	prefs []int  // per node
	done  bool   // set under store.mu once abs/err are final
	src   Provenance

	// Bounded-store bookkeeping (store.go), guarded by store.mu.
	bytes      int64
	pinned     bool // transport seed: never evicted
	inLRU      bool
	prev, next *absEntry
}

// Compress runs the full per-class pipeline (Algorithm 1) with cross-EC
// deduplication: identical classes share one cached abstraction, and
// symmetric classes are served by verified partition transport. Concurrent
// calls are safe — compilers stay per-goroutine, the cache is guarded by the
// Builder lock, and concurrent misses on one fingerprint are single-flighted
// so the work happens once. The returned Abstraction may be shared and must
// be treated as read-only (every consumer in this repository already does).
//
// Cancelling ctx makes Compress return promptly with the context's error;
// a cancelled single-flight claimer drops its cache slot, and waiters with
// live contexts retry the dropped slot rather than inheriting the foreign
// cancellation.
func (b *Builder) Compress(ctx context.Context, comp *policy.Compiler, cls ec.Class) (*core.Abstraction, error) {
	abs, _, err := b.CompressTagged(ctx, comp, cls)
	return abs, err
}

// CompressTagged is Compress with per-class provenance: whether the result
// was computed fresh, transported through a symmetry, or served from the
// identity cache. The streaming pipeline reports it per class.
func (b *Builder) CompressTagged(ctx context.Context, comp *policy.Compiler, cls ec.Class) (*core.Abstraction, Provenance, error) {
	if err := ctx.Err(); err != nil {
		return nil, ProvCached, err
	}
	st := &b.store
	// Warm-hit fast path: the prefix -> fingerprint memo answers without
	// recomputing the class fingerprint.
	b.internMu.Lock()
	fpMemo, memoOK := b.fpByPrefix[cls.Prefix]
	b.internMu.Unlock()
	if memoOK {
		st.mu.Lock()
		if e, ok := st.entries[fpMemo]; ok {
			st.served++
			st.lruTouch(e)
			st.mu.Unlock()
			if abs, err, retry := waitEntry(ctx, e); !retry {
				return abs, ProvCached, err
			}
		} else {
			st.mu.Unlock()
		}
	}
	sig, err := b.classSignature(cls)
	if err != nil {
		return nil, ProvCached, err
	}
	var e *absEntry
	for {
		st.mu.Lock()
		if prev, ok := st.entries[sig.fp]; ok {
			st.served++
			st.lruTouch(prev)
			st.mu.Unlock()
			if abs, err, retry := waitEntry(ctx, prev); !retry {
				return abs, ProvCached, err
			}
			continue
		}
		e = &absEntry{ready: make(chan struct{}), sig: sig, fp: sig.fp}
		st.entries[sig.fp] = e
		st.misses++
		st.mu.Unlock()
		break
	}

	// Miss path: only now pay for the O(E) edge-label vector (identity hits
	// never need it), then snapshot completed transport seeds with a
	// matching label histogram.
	b.ensureLabels(sig)
	var cands []*absEntry
	st.mu.Lock()
	for _, c := range st.isoIndex[sig.histo] {
		if c.done && c.err == nil && c.abs.ColorSplits == 0 {
			cands = append(cands, c)
		}
	}
	st.mu.Unlock()

	var transported bool
	for _, c := range cands {
		if pi, epi := b.findIso(c.sig, sig); pi != nil {
			e.abs, e.live, e.prefs = b.transportAbs(c, sig, pi, epi)
			transported = true
			break
		}
	}
	if !transported {
		e.abs, e.prefs, e.err = b.compressFresh(ctx, comp, cls)
		if e.err == nil {
			// The liveness vector refinement ran against, aligned with
			// G.Edges() — no re-derivation of edge keys.
			e.live = e.abs.Live
			if e.abs.ColorSplits == 0 {
				// This entry will be pinned as a transport seed: future
				// transports read its colors concurrently, so compute them
				// now, while the entry is still private, so no lazy write
				// can race with candidate reads.
				b.ensureColors(sig)
			}
		}
	}

	if e.err != nil || transported || e.abs.ColorSplits > 0 {
		sig.el, sig.colors = nil, nil // only a pinned seed is ever findIso's sa
	}
	prov := ProvFresh
	if transported {
		prov = ProvTransported
	}
	st.mu.Lock()
	if e.err != nil {
		// Drop failed entries so a later call can retry; waiters already
		// holding e still observe the error.
		delete(st.entries, sig.fp)
	} else {
		e.done = true
		e.src = prov
		if transported {
			st.transported++
		} else {
			if cur, ok := st.entries[sig.fp]; ok && cur != e && cur.done {
				// A second fresh refinement completed for a fingerprint that
				// already has a live result: single-flight has been broken
				// and work was duplicated. Recorded, and asserted zero in
				// tests.
				st.dupFresh++
			}
			st.fresh++
			if e.abs.ColorSplits == 0 {
				// Only ColorSplits-free fresh entries seed transports (the
				// candidate scan would skip others anyway): one pinned seed
				// per symmetry family keeps the index small and eviction
				// away from the entries the whole family depends on.
				e.pinned = true
				st.isoIndex[sig.histo] = append(st.isoIndex[sig.histo], e)
			}
		}
		st.account(e)
		st.evict()
	}
	st.mu.Unlock()
	close(e.ready)
	// Cross-tenant pressure runs outside the store lock (Pool.mu is ordered
	// above store.mu); a no-op when the store is not pool-attached or the
	// pool fits its ceiling.
	st.pressure()
	return e.abs, prov, e.err
}

// waitEntry blocks on a single-flight slot. retry is true when the entry
// failed with the *claimer's* context error while the waiter's own context
// is still live: the claimer dropped the slot before closing ready, so the
// waiter should re-claim it instead of surfacing a foreign cancellation.
func waitEntry(ctx context.Context, e *absEntry) (abs *core.Abstraction, err error, retry bool) {
	select {
	case <-e.ready:
		if e.err != nil && ctx.Err() == nil &&
			(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			return nil, nil, true
		}
		return e.abs, e.err, false
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
}

// CompressFresh compresses the class unconditionally, bypassing and not
// populating the deduplication cache: canonical edge keys from comp's BDD
// tables, abstraction refinement, and — when the network runs BGP — ∀∀
// strengthening plus local-preference case splitting. It is the reference
// implementation Compress is tested against, and what benchmarks use to
// measure undeduplicated cost.
func (b *Builder) CompressFresh(ctx context.Context, comp *policy.Compiler, cls ec.Class) (*core.Abstraction, error) {
	abs, _, err := b.compressFresh(ctx, comp, cls)
	return abs, err
}

// compressFresh is CompressFresh, also returning the prefs vector refinement
// ran with, which a store entry keeps.
func (b *Builder) compressFresh(ctx context.Context, comp *policy.Compiler, cls ec.Class) (*core.Abstraction, []int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	dest, err := b.destOf(cls)
	if err != nil {
		return nil, nil, err
	}
	mode := core.ModeEffective
	if b.hasBGP {
		mode = core.ModeBGP
	}
	prefs := b.prefsVec(cls)
	abs := core.FindAbstraction(b.G, dest, core.Options{
		Mode:     mode,
		EdgeKeys: b.EdgeKeyVec(comp, cls),
		Prefs:    func(u topo.NodeID) int { return prefs[u] },
	})
	return abs, prefs, nil
}

// CacheStats is the state of the cross-EC abstraction store.
type CacheStats struct {
	// Fresh counts abstractions computed by full refinement.
	Fresh int
	// Transported counts abstractions served by symmetry transport.
	Transported int64
	// Served counts Compress calls answered from the identity cache (the
	// store's hit counter).
	Served int64
	// Adopted counts abstractions carried across an incremental update by
	// partition re-validation (adopt.go) instead of recompression.
	Adopted int
	// Misses counts Compress calls that had to compute: first touches and
	// recompressions of evicted classes. Every miss becomes Fresh or
	// Transported (or an error).
	Misses int64
	// Evictions counts entries dropped by the memory budget; LiveBytes and
	// PeakBytes are the store's current and high-water accounted footprint,
	// BudgetBytes its configured ceiling (0 = unbounded).
	Evictions   int64
	LiveBytes   int64
	PeakBytes   int64
	BudgetBytes int64
	// DuplicateFresh counts fresh refinements that completed for a
	// fingerprint already holding a live result — duplicated work that the
	// single-flight protocol exists to prevent. Zero in a healthy engine;
	// tests assert it.
	DuplicateFresh int64
}

// AbstractionCacheStats reports the abstraction store state.
func (b *Builder) AbstractionCacheStats() CacheStats {
	st := &b.store
	st.mu.Lock()
	defer st.mu.Unlock()
	return CacheStats{
		Fresh:          st.fresh,
		Transported:    st.transported,
		Served:         st.served,
		Adopted:        st.adopted,
		Misses:         st.misses,
		Evictions:      st.evictions,
		LiveBytes:      st.bytes,
		PeakBytes:      st.peak,
		BudgetBytes:    st.budget,
		DuplicateFresh: st.dupFresh,
	}
}

// InvalidateAbstractionCache empties the abstraction store and resets its
// counters, keeping the configured budget. Benchmarks use it to measure
// full-class-set cost per iteration.
func (b *Builder) InvalidateAbstractionCache() {
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	b.store.reset()
}
