// Cross-EC abstraction deduplication. The paper's evaluation networks are
// highly regular, and compression only ever looks at a destination class
// through the canonical edge keys and prefs, so the Builder avoids redundant
// refinement work at two levels, and shares part of what is left:
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
//  3. Policy: a class that still needs a fresh refinement reuses the live
//     adjacency of the fresh class before it on the same compiler when the
//     two differ only in destination and origins, i.e. in the fingerprint's
//     part before its policy part (statics, match outcomes, ACL verdicts).
//     Its refinement still runs; only the edge keys and the adjacency are
//     not rebuilt — see freshAdjacency.
//
// The class fingerprint deliberately avoids compiling anything. Everything
// class-dependent in the pipeline reduces to: the destination vertex and
// origin set; the set of edges carrying an applicable static route; per
// session route map with a prefix match, the outcome of every prefix-list
// match against the class prefix (this determines the compiled BDD
// relation, AlwaysDrops, LocalPrefValues and LocalPrefPassesThrough,
// because MatchPrefix is the only prefix-dependent match kind); and per
// interface ACL, its verdict. A route map without a prefix match compiles
// to the same relation for every class, so it contributes nothing.
// Everything else (sessions, iBGP flags, redistribution, OSPF costs/areas)
// is class-independent. The cost per class is O(prefix-matching maps + ACLs
// + statics + E), orders of magnitude below one refinement run.
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
// identity cache, or carried across an incremental update. It is the
// four-way projection of an outcome; the streaming API surfaces it per class.
type Provenance uint8

const (
	ProvCached Provenance = iota
	ProvFresh
	ProvTransported
	ProvAdopted
)

func (p Provenance) String() string {
	return [...]string{"cache", "fresh", "transported", "adopted"}[p]
}

// outcome is how one class was answered: the path of Compress that served
// it, or what AdoptFrom did with it. An entry keeps the outcome of the class
// that made it (a loaded entry the zero one); CacheStats and AdoptStats are
// sums over a tally of outcomes, the store's and an AdoptFrom pass's.
type outcome uint8

const (
	outHit         outcome = iota // an entry another class made: the identity cache
	outOrbit                      // transported through the π a seed's orbit proposed
	outSearch                     // transported through the π the search found
	outFresh                      // refined on an adjacency of its own
	outFreshShared                // refined on the previous fresh class's adjacency
	outUnchanged                  // adopted: the predecessor's abstraction outright
	outReassembled                // adopted: its partition, the abstract graph rebuilt
	outRefused                    // not adopted: a check failed, the class recompresses
	outNew                        // not adopted: nothing to adopt from
	nOutcomes
)

func (o outcome) prov() Provenance {
	return [nOutcomes]Provenance{outOrbit: ProvTransported, outSearch: ProvTransported, outFresh: ProvFresh,
		outFreshShared: ProvFresh, outUnchanged: ProvAdopted, outReassembled: ProvAdopted}[o]
}

// tally counts outcomes, one slot each.
type tally [nOutcomes]int64

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
	live  topo.EdgeSet // the class's live edges of Builder.G
	prefs []int        // per node
	done  bool         // set under store.mu once abs/err are final
	out   outcome

	// Bounded-store bookkeeping (store.go), guarded by store.mu. The flags
	// sit beside done and out so that the orbit pointer below costs no
	// larger allocation size class.
	pinned     bool // transport seed: never evicted
	inLRU      bool
	bytes      int64
	prev, next *absEntry

	// orbit is a transport seed's generators and Schreier vector (transport.go),
	// nil until its first searched transport. Replaced, never mutated, under
	// store.mu; neither persisted nor carried across an adoption.
	orbit   *orbit
	targets []int32 // a transport seed's per-group target counts, set before it is pinned
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
	b.intern.mu.Lock()
	fpMemo, memoOK := b.fpByPrefix[cls.Prefix]
	b.intern.mu.Unlock()
	if memoOK {
		st.mu.Lock()
		if e, ok := st.entries[fpMemo]; ok {
			st.tally[outHit]++
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
			st.tally[outHit]++
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

	// Miss path. Transport compares content labels, which describe relations
	// only on a compiler over this Builder's erased universe; on any other
	// the class compresses fresh and seeds nothing.
	//
	// First, every seed whose orbit reaches the class's destination proposes
	// the product of its generators along the Schreier vector, and
	// verifyComposed decides: no colour key and no search. Orbits are
	// immutable once published, so the snapshot taken under the lock is read
	// without it.
	cc := b.cacheFor(comp)
	erased, sc := cc.erasesFor(b), &cc.iso
	type proposal struct {
		seed *absEntry
		o    *orbit
	}
	var pbuf [4]proposal
	props := pbuf[:0]
	if erased {
		st.mu.Lock()
		for _, c := range st.orbits {
			if c.orbit.reaches(sig.dest) {
				props = append(props, proposal{c, c.orbit})
			}
		}
		st.mu.Unlock()
	}
	var seed *absEntry // the transport's source, nil if none
	var pi []topo.NodeID
	var epi []int32
	for _, p := range props {
		if q, f, ok := b.verifyComposed(sc, p.o, p.seed.sig, sig); ok {
			seed, pi, epi, e.out = p.seed, q, f, outOrbit
			break
		}
	}

	// Then the search: only now pay for the O(E) colour key and colours
	// (identity hits and orbit hits never need them), and try the seeds that
	// share the key. A bucket only ever has completed seeds appended, so the
	// slice taken under the lock is read without it.
	if seed == nil && erased {
		sig.key, sig.col = b.colorKey(sc, sig)
		st.mu.Lock()
		cands := st.isoIndex[sig.key]
		st.mu.Unlock()
		for _, c := range cands {
			if pi, epi = b.findIso(sc, c.sig, sig); pi != nil {
				seed, e.out = c, outSearch
				break
			}
		}
	}
	if seed != nil {
		e.abs, e.live, e.prefs = b.transportAbs(sc, seed, sig, pi, epi)
		if b.onTransport != nil {
			b.onTransport(seed, pi, epi)
		}
	} else {
		e.err = b.compressFresh(ctx, comp, cls, e)
		if e.err == nil && erased && e.abs.ColorSplits == 0 { // a seed: only such partitions commute with π
			e.targets = b.tab.seedTargets(e.abs, e.live)
		}
	}
	st.mu.Lock()
	if e.err != nil {
		// Drop failed entries so a later call can retry; waiters already
		// holding e still observe the error.
		delete(st.entries, sig.fp)
	} else {
		st.tally[e.out]++
		if e.out == outSearch {
			st.addGenerator(seed, pi) // a searched π: a candidate generator
		}
		// admit refuses e only when another claimer's entry holds the
		// fingerprint (the store was reset mid-flight). A fresh refinement
		// completed beside a live result means single-flight was broken and
		// work duplicated: recorded, and asserted zero in tests.
		if cur := st.entries[sig.fp]; !st.admit(e) && seed == nil && cur.done {
			st.dupFresh++
		}
	}
	st.mu.Unlock()
	close(e.ready)
	// Cross-tenant pressure runs outside the store lock (Pool.mu is ordered
	// above store.mu); a no-op when the store is not pool-attached or the
	// pool fits its ceiling.
	st.pressure()
	return e.abs, e.out.prov(), e.err
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
	var e absEntry
	err := b.compressFresh(ctx, comp, cls, &e)
	return e.abs, err
}

// compressFresh is CompressFresh, filling in what a store entry keeps: the
// abstraction, the liveness set refinement ran against (the adjacency's, so
// entries that shared an adjacency share it too, and nothing writes it), the
// prefs vector and the outcome. e.sig is the
// class's signature on CompressTagged's fresh-miss branch and nil from
// CompressFresh (see freshAdjacency).
func (b *Builder) compressFresh(ctx context.Context, comp *policy.Compiler, cls ec.Class, e *absEntry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dest, err := b.destOf(cls)
	if err != nil {
		return err
	}
	adj, out := b.freshAdjacency(comp, cls, e.sig)
	prefs := b.prefsVec(cls)
	e.abs = core.FindAbstraction(b.G, dest, core.Options{
		Mode:      b.mode(),
		Adjacency: adj,
		Prefs:     func(u topo.NodeID) int { return prefs[u] },
	})
	e.live, e.prefs, e.out = adj.Live(), prefs, out
	return nil
}

// mode is the refinement mode HasBGP selects.
func (b *Builder) mode() core.Mode {
	if b.hasBGP {
		return core.ModeBGP
	}
	return core.ModeEffective
}

// freshAdjacency returns the class's live adjacency. Given the class's
// signature, it is comp's one-slot memo when the previous fresh class on comp
// was of this Builder and had the same policy key, fp[pol:]; otherwise it is
// built and fills the slot. Edge keys are a function of exactly that key: the
// statics mask, each route map's match outcomes (which fix every relKey, so
// within one compiler every relation is the same BDD node) and each ACL's
// verdict. Equal keys therefore give identical tokens, liveness and
// adjacency, and refinement never writes the adjacency it reads. The
// Builder's id is part of the key because a pooled compiler outlives its
// Builder and a successor issues the same keys over different edges.
// Without a signature (CompressFresh, the oracle) it is always built.
func (b *Builder) freshAdjacency(comp *policy.Compiler, cls ec.Class, sig *classSig) (*core.Adjacency, outcome) {
	if sig == nil {
		return core.NewAdjacency(b.G, b.EdgeKeyVec(comp, cls)), outFresh
	}
	cc, pol := b.cacheFor(comp), sig.fp[sig.pol:]
	if cc.adj != nil && cc.adjOwner == b.id && cc.adjKey == pol {
		return cc.adj, outFreshShared
	}
	cc.adjOwner, cc.adjKey, cc.adj = b.id, pol, core.NewAdjacency(b.G, b.EdgeKeyVec(comp, cls))
	return cc.adj, outFresh
}

// CacheStats is the state of the cross-EC abstraction store, served as
// bonsai.StoreStats. Fresh, Transported, Served and Adopted sum the store's
// tally: abstractions refined, abstractions transported through a verified
// symmetry, Compress calls answered from the identity cache, and abstractions
// carried across an incremental update (adopt.go). Misses counts Compress
// calls that had to compute (first touches and recompressions of evicted
// classes; each becomes Fresh or Transported, or an error), Evictions the
// entries the memory budget dropped; LiveBytes and PeakBytes are the store's
// current and high-water accounted footprint, BudgetBytes its ceiling (0 =
// unbounded). DuplicateFresh counts fresh refinements that completed for a
// fingerprint already holding a live result: work the single-flight protocol
// exists to prevent, zero in a healthy engine, and tests assert it.
type CacheStats struct {
	Fresh          int   `json:"fresh"`
	Transported    int64 `json:"transported"`
	Served         int64 `json:"served"`
	Adopted        int   `json:"adopted"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	LiveBytes      int64 `json:"live_bytes"`
	PeakBytes      int64 `json:"peak_bytes"`
	BudgetBytes    int64 `json:"budget_bytes,omitempty"`
	DuplicateFresh int64 `json:"duplicate_fresh,omitempty"`
}

// AbstractionCacheStats reports the abstraction store state.
func (b *Builder) AbstractionCacheStats() CacheStats {
	st := &b.store
	st.mu.Lock()
	defer st.mu.Unlock()
	return CacheStats{
		Fresh:          int(st.tally[outFresh] + st.tally[outFreshShared]),
		Transported:    st.tally[outOrbit] + st.tally[outSearch],
		Served:         st.tally[outHit],
		Adopted:        int(st.tally[outUnchanged] + st.tally[outReassembled]),
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
