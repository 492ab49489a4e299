package verify

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/build"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
)

// Memo is one snapshot's unit of work: the compressed analysis of each
// fingerprint group, which every member class reads (classes do not
// interact, paper §5.1, and a group's classes are served one abstraction,
// audit §12.11), and the concrete analysis of each class, the oracle the
// grouping is tested against. It only gains answers that are functions of
// its Builder, so no answer depends on which lookups ran before. An entry
// is solved at most once however many lookups race for it; a failed solve
// (error, cancellation or panic) leaves before its waiters wake, and they
// start over.
type Memo struct {
	b      *build.Builder
	group  func(ec.Class) string
	counts *MemoCounts
	lend   Lender

	mu      sync.Mutex
	flights map[memoKey]*flight
	members map[netip.Prefix]*flight // the answered group of a class Answer read
}

// MemoCounts counts lookups: a miss solved its entry, a hit found it solved
// or joined its solve. An engine's snapshots share one.
type MemoCounts struct{ Hits, Misses atomic.Int64 }

// memoKey is a fingerprint group (FingerprintKey, never empty) or the class
// of a concrete entry.
type memoKey struct {
	group string
	class netip.Prefix
}

// flight is one solve; once done is closed, a nil e.Facts means it failed.
type flight struct {
	done chan struct{}
	e    entry
}

// A Lender lends a policy compiler and returns the function that takes it
// back. It must be safe for concurrent use.
type Lender func() (comp *policy.Compiler, giveBack func())

// NewMemo returns an empty memo over b that counts into counts (its own
// when nil) and compresses on the compilers lend lends.
func NewMemo(b *build.Builder, counts *MemoCounts, lend Lender) *Memo {
	if counts == nil {
		counts = new(MemoCounts)
	}
	return &Memo{b: b, group: FingerprintKey(b), counts: counts, lend: lend,
		flights: make(map[memoKey]*flight), members: make(map[netip.Prefix]*flight)}
}

// Answer returns cls's analysis: compressed, its fingerprint group's entry;
// otherwise cls's own concrete entry. A class read once finds its group's
// answer again by its prefix, without hashing a fingerprint (kilobytes on a
// WAN).
func (m *Memo) Answer(ctx context.Context, cls ec.Class, compressed bool) (ClassAnswer, error) {
	f, _, _, err := m.lookup(ctx, cls, compressed)
	if err != nil {
		return ClassAnswer{}, err
	}
	if compressed {
		m.mu.Lock()
		m.members[cls.Prefix] = f
		m.mu.Unlock()
	}
	return f.e.ClassAnswer, nil
}

// lookup returns the answered flight of cls's entry, whether this lookup
// solved it, and the time it spent compressing.
func (m *Memo) lookup(ctx context.Context, cls ec.Class, compressed bool) (f *flight, took time.Duration, solved bool, err error) {
	key := memoKey{class: cls.Prefix}
	if compressed {
		m.mu.Lock()
		f = m.members[cls.Prefix]
		m.mu.Unlock()
		if f != nil {
			m.counts.Hits.Add(1)
			return f, 0, false, nil
		}
		key = memoKey{group: m.group(cls)}
	}
	for {
		m.mu.Lock()
		f = m.flights[key]
		if solved = f == nil; solved {
			f = &flight{done: make(chan struct{})}
			m.flights[key] = f
		}
		m.mu.Unlock()
		if solved {
			m.counts.Misses.Add(1)
			took, err = m.lead(ctx, cls, key, f)
			return f, took, true, err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, 0, false, ctx.Err()
		}
		if f.e.Facts != nil {
			m.counts.Hits.Add(1)
			return f, 0, false, nil
		}
	}
}

// lead solves cls for flight f and publishes the outcome.
func (m *Memo) lead(ctx context.Context, cls ec.Class, key memoKey, f *flight) (took time.Duration, err error) {
	var e entry
	defer func() {
		if e.Facts == nil {
			m.mu.Lock()
			delete(m.flights, key)
			m.mu.Unlock()
		}
		f.e = e
		close(f.done)
	}()
	var comp *policy.Compiler
	if key.group != "" {
		c, giveBack := m.lend()
		defer giveBack()
		comp = c
	}
	e, took, err = solve(ctx, m.b, comp, cls, key.group != "")
	return took, err
}

// AllPairs verifies all-pairs reachability on the compressed network as a
// fold over the memo: every class is looked up, leaders-first by
// fingerprint, and its group's counts are added; only the lookups that
// solved add compress time.
func (m *Memo) AllPairs(ctx context.Context, opts Options) (*Result, error) {
	return allPairs(ctx, m.b, m, opts)
}
