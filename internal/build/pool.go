// The shared abstraction memory pool: one global byte budget partitioned
// across many Builders (bonsaid tenants). Each member keeps its own bounded
// LRU store (store.go) — the pool adds a *second*, cross-member layer of
// pressure: when the sum of all members' retained abstraction bytes exceeds
// the pool ceiling, the pool sheds least-recently-used entries from the
// member furthest over its guaranteed floor, repeating until the total fits
// or every member is at (or under) its floor.
//
// The invariants a multi-tenant server relies on:
//
//   - Global ceiling: after every rebalance, total retained bytes <= ceiling
//     unless the sum of floors and pinned transport seeds alone exceeds it
//     (a misconfiguration the pool degrades through rather than violates by
//     thrashing — seeds are never evicted, exactly as in the local store).
//   - Per-member floor: cross-tenant pressure never evicts a member below
//     its floor. A small tenant keeps its warm working set no matter how
//     hard a large neighbor churns; only the tenant's *own* local budget
//     (SetAbstractionBudget) may cut deeper.
//   - Safety: eviction is the same operation the local store performs — an
//     evicted class reads as cold and recomputes on its next query — so the
//     pool affects performance, never correctness.
//
// Locking: Pool.mu is ordered strictly above every member's store.mu. Stores
// update the pool's byte total with atomics (no Pool.mu on the charge path);
// rebalancing takes Pool.mu and then member store locks one at a time.
// Callers must not hold a store lock when calling into the pool — the charge
// sites in dedup.go/adopt.go call maybeRebalance after releasing store.mu.
package build

import (
	"sync"
	"sync/atomic"
)

// Pool is a shared memory budget across many Builders' abstraction stores.
// The zero value is unusable; use NewPool.
type Pool struct {
	ceiling int64

	total atomic.Int64 // sum of members' accounted bytes
	peak  atomic.Int64 // high-water total

	crossEvictions atomic.Int64 // entries evicted by cross-member pressure
	rebalances     atomic.Int64 // rebalance passes that evicted something

	mu      sync.Mutex
	members []*poolMember
}

// poolMember is one attached store with its guaranteed floor.
type poolMember struct {
	store *absStore
	label string
	floor int64
}

// NewPool creates a pool with the given global byte ceiling (<= 0 means
// unbounded: the pool still aggregates accounting, useful for metrics, but
// never evicts).
func NewPool(ceiling int64) *Pool {
	return &Pool{ceiling: ceiling}
}

// charge records a byte delta from a member store. Called with the member's
// store.mu held — atomics only, no Pool.mu.
func (p *Pool) charge(delta int64) {
	t := p.total.Add(delta)
	for {
		pk := p.peak.Load()
		if t <= pk || p.peak.CompareAndSwap(pk, t) {
			return
		}
	}
}

// Attach registers b's abstraction store as a pool member with the given
// guaranteed floor, charging its current footprint. Label identifies the
// member in PoolStats (a tenant name). Attaching an already-attached
// builder moves it to the new floor/label.
func (p *Pool) Attach(b *Builder, label string, floor int64) {
	st := &b.store
	p.mu.Lock()
	defer p.mu.Unlock()
	st.mu.Lock()
	if st.pool == p {
		st.mu.Unlock()
		for _, m := range p.members {
			if m.store == st {
				m.label, m.floor = label, floor
			}
		}
		return
	}
	if st.pool != nil {
		st.mu.Unlock()
		panic("build: store attached to two pools")
	}
	st.pool = p
	p.charge(st.bytes)
	st.mu.Unlock()
	p.members = append(p.members, &poolMember{store: st, label: label, floor: floor})
	p.rebalanceLocked()
}

// Detach removes b's store from the pool, discharging its footprint. The
// engine calls it when a snapshot is replaced (Apply) or closed.
func (p *Pool) Detach(b *Builder) {
	st := &b.store
	p.mu.Lock()
	defer p.mu.Unlock()
	st.mu.Lock()
	if st.pool != p {
		st.mu.Unlock()
		return
	}
	st.pool = nil
	p.total.Add(-st.bytes)
	st.mu.Unlock()
	for i, m := range p.members {
		if m.store == st {
			p.members = append(p.members[:i], p.members[i+1:]...)
			break
		}
	}
}

// maybeRebalance sheds cross-member pressure if the total exceeds the
// ceiling. Callers must not hold any store lock.
func (p *Pool) maybeRebalance() {
	if p == nil || p.ceiling <= 0 || p.total.Load() <= p.ceiling {
		return
	}
	p.mu.Lock()
	p.rebalanceLocked()
	p.mu.Unlock()
}

// rebalanceLocked evicts LRU entries from the member furthest over its
// floor until the pool fits its ceiling or no member can shed. Callers hold
// Pool.mu.
func (p *Pool) rebalanceLocked() {
	if p.ceiling <= 0 {
		return
	}
	evictedAny := false
	// A member whose shed makes no progress (everything pinned or in
	// flight) is excluded for the rest of this pass so another member with
	// smaller overage still gets a chance to shed.
	var stuck map[*poolMember]bool
	for {
		need := p.total.Load() - p.ceiling
		if need <= 0 {
			break
		}
		// Victim: the member with the largest overage above its floor.
		var victim *poolMember
		var worst int64
		for _, m := range p.members {
			if stuck[m] {
				continue
			}
			m.store.mu.Lock()
			over := m.store.bytes - m.floor
			m.store.mu.Unlock()
			if over > worst {
				worst, victim = over, m
			}
		}
		if victim == nil {
			break // everyone at or under floor: ceiling < sum of floors
		}
		take := need
		if take > worst {
			take = worst
		}
		_, n := victim.store.shed(take, victim.floor)
		if n == 0 {
			if stuck == nil {
				stuck = make(map[*poolMember]bool)
			}
			stuck[victim] = true
			continue
		}
		p.crossEvictions.Add(int64(n))
		evictedAny = true
	}
	if evictedAny {
		p.rebalances.Add(1)
	}
}

// PoolStats is a snapshot of the shared pool.
type PoolStats struct {
	// CeilingBytes is the configured global budget (0 = unbounded).
	CeilingBytes int64
	// LiveBytes and PeakBytes are the current and high-water sums of all
	// members' retained abstraction bytes.
	LiveBytes int64
	PeakBytes int64
	// CrossEvictions counts entries evicted by cross-member pressure (each
	// member's own Evictions counter includes these); Rebalances counts
	// rebalance passes that evicted at least one entry.
	CrossEvictions int64
	Rebalances     int64
	Members        []PoolMemberStats
}

// PoolMemberStats is one member's share.
type PoolMemberStats struct {
	Label      string
	FloorBytes int64
	LiveBytes  int64
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		CeilingBytes:   p.ceiling,
		LiveBytes:      p.total.Load(),
		PeakBytes:      p.peak.Load(),
		CrossEvictions: p.crossEvictions.Load(),
		Rebalances:     p.rebalances.Load(),
	}
	p.mu.Lock()
	for _, m := range p.members {
		m.store.mu.Lock()
		b := m.store.bytes
		m.store.mu.Unlock()
		s.Members = append(s.Members, PoolMemberStats{Label: m.label, FloorBytes: m.floor, LiveBytes: b})
	}
	p.mu.Unlock()
	return s
}

// pressure asks the store's pool (if any) to rebalance. Callers must not
// hold the store lock.
func (s *absStore) pressure() {
	s.mu.Lock()
	p := s.pool
	s.mu.Unlock()
	p.maybeRebalance()
}

// shed evicts coldest entries until it has freed at least want bytes or the
// store would drop below floor (or runs out of evictable entries). It
// returns the bytes freed and entries evicted. Unlike evict (the local
// budget), shed respects the member floor: cross-tenant pressure never
// cuts into a member's guaranteed share.
func (s *absStore) shed(want, floor int64) (freed int64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for freed < want && s.head != nil && s.bytes-s.head.bytes >= floor {
		e := s.head
		s.lruUnlink(e)
		s.remove(e)
		s.evictions++
		freed += e.bytes
		n++
	}
	return freed, n
}
