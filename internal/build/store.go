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
//   - Transport seeds — fresh, ColorSplits-free entries indexed by colour
//     key — are pinned (but charged). One seed exists per symmetry
//     family, it is the entry every symmetric class's multi-millisecond
//     refinement is skipped through, and evicting it would make
//     compression cost resurge for the whole family. A seed also keeps the
//     orbit its searched transports proved (transport.go): the generators
//     and the Schreier vector through which most of the family is served
//     with no search at all. Both are charged to the seed, which is
//     recharged each time a generator extends its orbit (addGenerator). A
//     budget below the seed working set therefore degrades gracefully:
//     everything else is evicted and the store floats at the seed
//     footprint.
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
	// isoIndex holds the pinned transport seeds per colour key (colorKey): a
	// missed class searches only from the seeds filed under its own key, and
	// on every family measured each key holds one seed. Buckets are
	// append-only. orbits holds the seeds that have an orbit, in the order
	// they got one.
	isoIndex map[uint64][]*absEntry
	orbits   []*absEntry

	// budget is the byte ceiling (0 = unbounded); bytes is the accounted
	// footprint of completed entries, peak its high-water mark.
	budget int64
	bytes  int64
	peak   int64
	// LRU list of evictable entries: head is coldest, tail hottest.
	head, tail *absEntry

	// tally folds the outcome of every class the store answered or took
	// in (dedup.go); misses, evictions and dupFresh count store events.
	tally                       tally
	misses, evictions, dupFresh int64

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
	s.orbits, s.head, s.tail = nil, nil, nil
	s.tally, s.bytes, s.peak, s.misses, s.evictions, s.dupFresh = tally{}, 0, 0, 0, 0, 0
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

// closed is the ready channel of an entry complete when it is made (adopted
// or loaded): nothing ever waits on it.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// admit takes completed entry e into the store under its fingerprint, the
// one way in for a computed, an adopted and a loaded entry alike: unless
// another entry holds the fingerprint, a transport seed (targets set) is
// pinned and filed under its colour key while any other entry drops its
// colours, e is charged against the budget, and the store evicts down to
// it. The peak watermark is taken after eviction settles, so it reports the
// bounded steady state rather than the transient of the entry being
// admitted. It reports whether e went in. Callers hold mu.
func (s *absStore) admit(e *absEntry) bool {
	if cur, ok := s.entries[e.fp]; ok && cur != e {
		return false
	}
	s.entries[e.fp] = e
	e.done = true
	if e.targets != nil {
		e.pinned = true
		s.isoIndex[e.sig.key] = append(s.isoIndex[e.sig.key], e)
	} else {
		e.sig.col = nil // only a seed is searched from
	}
	e.bytes = entryBytes(e)
	s.bytes += e.bytes
	if s.pool != nil {
		s.pool.charge(e.bytes)
	}
	s.lruTouch(e)
	s.evict()
	return true
}

// addGenerator gives seed the orbit a searched π extends its own to and
// charges the seed for it. A π that adds no point is dropped, so a seed keeps
// at most |orbit| − 1 generators; a seed the store no longer holds (reset ran
// while its search did) gets none. Callers hold mu.
func (s *absStore) addGenerator(seed *absEntry, pi []topo.NodeID) {
	if s.entries[seed.fp] != seed {
		return
	}
	o := seed.orbit.extend(seed.sig.dest, pi)
	if o == nil {
		return
	}
	if seed.orbit == nil {
		s.orbits = append(s.orbits, seed)
	}
	seed.orbit = o
	old := seed.bytes
	seed.bytes = entryBytes(seed)
	s.bytes += seed.bytes - old
	if s.pool != nil {
		s.pool.charge(seed.bytes - old)
	}
}

// evict sheds the store down to its budget, if it has one, at floor 0.
// Callers hold mu.
func (s *absStore) evict() {
	if s.budget > 0 {
		s.shed(s.bytes-s.budget, 0)
	}
	s.peak = max(s.peak, s.bytes)
}

// shed evicts coldest entries until it has freed want bytes, the store would
// drop below floor, or nothing is evictable, and returns how many it
// evicted: the one eviction loop, for the store's own budget (evict) and for
// a pool's cross-tenant pressure, which never cuts into a member's floor.
// Evicted entries vanish from every index; their waiters (goroutines already
// holding the pointer) are unaffected, and the next Compress for an evicted
// class is an ordinary miss that recomputes. Callers hold mu.
func (s *absStore) shed(want, floor int64) (n int) {
	for freed := int64(0); freed < want && s.head != nil && s.bytes-s.head.bytes >= floor; n++ {
		e := s.head
		s.lruUnlink(e)
		if cur, ok := s.entries[e.fp]; ok && cur == e {
			delete(s.entries, e.fp)
		}
		s.bytes -= e.bytes
		if s.pool != nil {
			s.pool.charge(-e.bytes)
		}
		s.evictions++
		freed += e.bytes
	}
	return n
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
// liveness set (one bit per edge), preference and signature vectors. It
// deliberately ignores memory shared with the Builder (the concrete
// topology, interned strings): the store's job is to bound what *retention
// of entries* adds. Fresh entries of one policy share one liveness set
// (their adjacency's, dedup.go), and each of them is charged for it: that
// over-estimates and never under-counts.
func entryBytes(e *absEntry) int64 {
	const (
		word  = 8
		slice = 24 // slice header
	)
	n := int64(160) // entry struct + LRU links + channel
	n += int64(len(e.fp))
	n += slice + word*int64(cap(e.live))
	n += slice + word*int64(cap(e.prefs))
	if s := e.sig; s != nil {
		n += 96 // the struct; its fp is the string e.fp, charged above
		n += slice + int64(cap(s.origin))
		n += slice + 4*int64(cap(s.fpIDs))
		n += slice + int64(cap(s.aclV))
		n += slice + word*int64(cap(s.statics))
		n += slice + word*int64(cap(s.col)) // a pinned seed's colours
	}
	if o := e.orbit; o != nil {
		n += 8 + 3*slice + slice*int64(cap(o.gens)) // the struct, its gens' headers
		for _, g := range o.gens {
			n += word * int64(cap(g))
		}
		n += 4 * int64(cap(o.via)+cap(o.pre))
	}
	n += slice + 4*int64(cap(e.targets))
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
