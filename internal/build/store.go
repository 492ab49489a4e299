// The bounded abstraction store: the Builder's cross-EC cache with
// byte-accounted entries, LRU eviction under a configurable budget, and
// hit/miss/eviction statistics. Unbounded retention was fine while a
// Builder compressed one evaluation network and exited, but a long-lived
// engine streaming millions of classes would hold every abstraction it
// ever computed; the store makes retention a policy, not an accident.
//
// Eviction is always safe because the store is a cache, never the source of
// truth: a Compress call that misses (first touch or post-eviction) simply
// recomputes, and incremental adoption (adopt.go) treats an evicted entry
// as a cold class — never an error. Two kinds of entries are exempt from
// eviction:
//
//   - In-flight entries (single-flight slots whose computation is running)
//     are not yet in the LRU list — nor in the byte accounting, whose
//     charge lands on completion; the budget therefore bounds *retained*
//     results, and transient overshoot is at most the abstractions
//     currently being computed (one per shard).
//   - Transport seeds — fresh, ColorSplits-free entries indexed by label
//     histogram — are pinned (but charged). One seed exists per symmetry
//     family, it is the entry every symmetric class's multi-millisecond
//     refinement is skipped through, and evicting it would make
//     compression cost resurge for the whole family. A budget below the
//     seed working set therefore degrades gracefully: everything else is
//     evicted and the store floats at the seed footprint.
package build

import (
	"sync"

	"bonsai/internal/topo"
)

// absStore is the bounded cross-EC abstraction cache. All fields are
// guarded by mu; absEntry.ready/abs/err follow the single-flight protocol
// of dedup.go. The prefix -> fingerprint index lives on the Builder
// (fpByPrefix): it is deterministic and class-count-sized, so it survives
// eviction instead of being torn down with each entry.
type absStore struct {
	mu      sync.Mutex
	entries map[string]*absEntry // fingerprint -> single-flight slot
	// isoIndex holds the pinned transport seeds per label-histogram hash.
	isoIndex map[uint64][]*absEntry

	// budget is the byte ceiling (0 = unbounded); bytes is the accounted
	// footprint of completed entries, peak its high-water mark.
	budget int64
	bytes  int64
	peak   int64
	// LRU list of evictable entries: head is coldest, tail hottest.
	head, tail *absEntry

	served, transported, misses, evictions, dupFresh int64
	fresh, adopted                                   int

	// pool, when non-nil, is the shared cross-Builder memory pool this
	// store's bytes are charged against (pool.go). Guarded by mu; the pool
	// itself is updated with atomics so no Pool lock is taken here.
	pool *Pool
}

func newAbsStore() absStore {
	return absStore{
		entries:  make(map[string]*absEntry),
		isoIndex: make(map[uint64][]*absEntry),
	}
}

// reset empties the store and its counters, keeping the budget (and pool
// membership, discharging the dropped bytes).
func (s *absStore) reset() {
	if s.pool != nil {
		s.pool.charge(-s.bytes)
	}
	s.entries = make(map[string]*absEntry)
	s.isoIndex = make(map[uint64][]*absEntry)
	s.bytes, s.peak = 0, 0
	s.head, s.tail = nil, nil
	s.served, s.transported, s.misses, s.evictions, s.dupFresh = 0, 0, 0, 0, 0
	s.fresh, s.adopted = 0, 0
}

// lruUnlink removes e from the LRU list if present. Callers hold mu.
func (s *absStore) lruUnlink(e *absEntry) {
	if !e.inLRU {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next, e.inLRU = nil, nil, false
}

// lruTouch moves e to the hot end (inserting it if absent). Pinned entries
// never enter the list. Callers hold mu.
func (s *absStore) lruTouch(e *absEntry) {
	if e.pinned {
		return
	}
	s.lruUnlink(e)
	e.prev, e.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
	e.inLRU = true
}

// account charges e's estimated footprint against the budget and makes the
// completed entry evictable (or pins it as a transport seed). Callers hold
// mu; callers run evict afterwards — the peak watermark is taken there,
// after eviction settles, so it reports the bounded steady state rather
// than the unavoidable transient of the entry being installed.
func (s *absStore) account(e *absEntry) {
	e.bytes = entryBytes(e)
	s.bytes += e.bytes
	if s.pool != nil {
		s.pool.charge(e.bytes)
	}
	s.lruTouch(e)
}

// evict removes coldest entries until the store fits its budget. Entries
// vanish from every index; their waiters (goroutines already holding the
// pointer) are unaffected, and the next Compress for an evicted class is
// an ordinary miss that recomputes. Callers hold mu.
func (s *absStore) evict() {
	for s.budget > 0 && s.bytes > s.budget && s.head != nil {
		e := s.head
		s.lruUnlink(e)
		s.remove(e)
		s.evictions++
	}
	if s.bytes > s.peak {
		s.peak = s.bytes
	}
}

// remove deletes a completed entry from the fingerprint map and the byte
// accounting. Callers hold mu and have unlinked e from the LRU.
func (s *absStore) remove(e *absEntry) {
	if cur, ok := s.entries[e.fp]; ok && cur == e {
		delete(s.entries, e.fp)
	}
	s.bytes -= e.bytes
	if s.pool != nil {
		s.pool.charge(-e.bytes)
	}
}

// SetAbstractionBudget bounds the abstraction store to approximately the
// given number of bytes of retained results (0 restores unbounded
// retention), evicting least-recently-used entries immediately if the
// store is already over. Pinned transport seeds are charged but never
// evicted, so very small budgets float at the seed working set instead of
// thrashing the symmetry machinery; in-flight computations are charged on
// completion.
func (b *Builder) SetAbstractionBudget(bytes int64) {
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	b.store.budget = bytes
	b.store.evict()
}

// entryBytes estimates the retained footprint of a completed entry: the
// abstraction's partition vectors and abstract graph plus the cached
// liveness/preference/signature vectors. It deliberately ignores memory
// shared with the Builder (the concrete topology, interned strings): the
// store's job is to bound what *retention of entries* adds.
func entryBytes(e *absEntry) int64 {
	const (
		word  = 8
		slice = 24 // slice header
	)
	n := int64(160) // entry struct + LRU links + channel
	n += int64(len(e.fp))
	n += slice + int64(cap(e.live))
	n += slice + word*int64(cap(e.prefs))
	if s := e.sig; s != nil {
		n += 96 // the struct; its fp is the string e.fp, charged above
		n += slice + int64(cap(s.origin))
		n += slice + 4*int64(cap(s.fpIDs))
		n += slice + int64(cap(s.aclV))
		n += slice + int64(cap(s.statics))
		n += slice + word*int64(cap(s.el))
		n += slice + word*int64(cap(s.colors))
	}
	if a := e.abs; a != nil {
		n += 128 // struct
		n += slice + word*int64(cap(a.F))
		n += slice * int64(len(a.Groups)+len(a.Copies))
		for _, g := range a.Groups {
			n += word * int64(cap(g))
		}
		for _, c := range a.Copies {
			n += word * int64(cap(c))
		}
		n += slice + 2*word*int64(cap(a.RepEdge))
		if len(a.Live) == 0 || len(e.live) == 0 || &a.Live[0] != &e.live[0] {
			// an adopted entry: its abstraction is its predecessor's
			n += slice + int64(cap(a.Live))
		}
		if a.AbsG != nil {
			n += graphBytes(a.AbsG)
		}
	}
	return n
}

// graphBytes estimates a topo.Graph's footprint from its public shape.
func graphBytes(g *topo.Graph) int64 {
	nodes, edges := int64(g.NumNodes()), int64(g.NumEdges())
	// Per node: name header, index entry, succ header, CSR offset. Per edge:
	// succ member, CSR edge and reverse index.
	return nodes*(16+48+24+4) + edges*(8+16+4)
}
