package build

import (
	"context"
	"sync"
	"testing"

	"bonsai/internal/netgen"
)

// fillBuilder compresses every class of a fattree through one compiler,
// returning the builder.
func fillBuilder(t *testing.T, k int) *Builder {
	t.Helper()
	b, err := New(netgen.Fattree(k, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	ctx := context.Background()
	for _, cls := range b.Classes() {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestPoolCeilingEnforced attaches two builders to one pool whose ceiling is
// well below their combined footprint and asserts the pool sheds down to the
// ceiling while both keep answering queries.
func TestPoolCeilingEnforced(t *testing.T) {
	a := fillBuilder(t, 4)
	bytesA := a.AbstractionCacheStats().LiveBytes
	if bytesA <= 0 {
		t.Fatal("no accounted bytes")
	}
	// Ceiling: 1.2x one builder's footprint — two full builders cannot fit.
	p := NewPool(bytesA + bytesA/5)
	p.Attach(a, "a", 0)

	b := fillBuilder(t, 4)
	p.Attach(b, "b", 0)

	s := p.Stats()
	if s.LiveBytes > s.CeilingBytes {
		// Only pinned seeds may hold the total above the ceiling; two
		// fattree-4 builders have far more evictable than pinned bytes.
		t.Fatalf("pool over ceiling after attach: live=%d ceiling=%d", s.LiveBytes, s.CeilingBytes)
	}
	if s.CrossEvictions == 0 {
		t.Fatalf("expected cross evictions: %+v", s)
	}
	if s.PeakBytes < s.LiveBytes {
		t.Fatalf("peak below live: %+v", s)
	}

	// Both builders still serve every class (evicted ones recompute).
	for _, bb := range []*Builder{a, b} {
		comp := bb.NewCompiler(true)
		for _, cls := range bb.Classes() {
			if _, err := bb.Compress(context.Background(), comp, cls); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPoolFloorsHonored fills a small tenant, then lets a big tenant churn
// hard under a tight ceiling; the small tenant must keep at least its floor
// of retained bytes (cross-tenant pressure never cuts into the floor).
func TestPoolFloorsHonored(t *testing.T) {
	small := fillBuilder(t, 4)
	smallBytes := small.AbstractionCacheStats().LiveBytes
	// Floor: everything small currently holds.
	p := NewPool(smallBytes + smallBytes/2)
	p.Attach(small, "small", smallBytes)

	big := fillBuilder(t, 6) // fattree-6 has a larger class set
	p.Attach(big, "big", 0)

	s := p.Stats()
	var smallLive, bigLive int64
	for _, m := range s.Members {
		switch m.Label {
		case "small":
			smallLive = m.LiveBytes
		case "big":
			bigLive = m.LiveBytes
		}
	}
	if smallLive < smallBytes {
		t.Fatalf("small tenant evicted below floor: live=%d floor=%d", smallLive, smallBytes)
	}
	if got := small.AbstractionCacheStats().Evictions; got != 0 {
		t.Fatalf("small tenant saw %d evictions despite floor", got)
	}
	// Big absorbed all the pressure: it must have shed essentially
	// everything evictable (pinned seeds may remain).
	if bigLive >= big.AbstractionCacheStats().PeakBytes {
		t.Fatalf("big tenant shed nothing: live=%d", bigLive)
	}
	if s.CrossEvictions == 0 {
		t.Fatal("no cross evictions recorded")
	}
}

// TestPoolShedStopsAtTheFloor: pressure sheds a member only while what is
// left stays at or above its floor, even when the bytes it was asked for are
// fewer than the coldest entry holds. A member one byte over its floor under
// a one-byte ceiling keeps everything.
func TestPoolShedStopsAtTheFloor(t *testing.T) {
	b := fillBuilder(t, 4)
	live := b.AbstractionCacheStats().LiveBytes
	NewPool(1).Attach(b, "one", live-1)
	if st := b.AbstractionCacheStats(); st.Evictions != 0 || st.LiveBytes != live {
		t.Fatalf("shed below the floor: %d evictions, %d of %d bytes left", st.Evictions, st.LiveBytes, live)
	}
}

// TestPoolDetachDischarges asserts detaching a member releases its bytes
// from the pool total.
func TestPoolDetachDischarges(t *testing.T) {
	a := fillBuilder(t, 4)
	b := fillBuilder(t, 4)
	p := NewPool(0) // unbounded: accounting only
	p.Attach(a, "a", 0)
	p.Attach(b, "b", 0)
	before := p.Stats()
	if len(before.Members) != 2 || before.LiveBytes <= 0 {
		t.Fatalf("attach accounting: %+v", before)
	}
	aBytes := a.AbstractionCacheStats().LiveBytes
	p.Detach(a)
	after := p.Stats()
	if len(after.Members) != 1 {
		t.Fatalf("detach left %d members", len(after.Members))
	}
	if after.LiveBytes != before.LiveBytes-aBytes {
		t.Fatalf("detach accounting: before=%d after=%d aBytes=%d",
			before.LiveBytes, after.LiveBytes, aBytes)
	}
	// Double detach is a no-op.
	p.Detach(a)
	if got := p.Stats().LiveBytes; got != after.LiveBytes {
		t.Fatalf("double detach changed total: %d", got)
	}
}

// TestPoolConcurrentCompress races many members compressing under a shared
// tight ceiling — the accounting must stay consistent and the total bounded
// once the dust settles.
func TestPoolConcurrentCompress(t *testing.T) {
	probe := fillBuilder(t, 4)
	one := probe.AbstractionCacheStats().LiveBytes
	p := NewPool(2 * one)

	const n = 4
	builders := make([]*Builder, n)
	for i := range builders {
		b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
		if err != nil {
			t.Fatal(err)
		}
		builders[i] = b
		p.Attach(b, string(rune('a'+i)), one/8)
	}
	var wg sync.WaitGroup
	for _, b := range builders {
		wg.Add(1)
		go func(b *Builder) {
			defer wg.Done()
			comp := b.NewCompiler(true)
			ctx := context.Background()
			for round := 0; round < 3; round++ {
				for _, cls := range b.Classes() {
					if _, err := b.Compress(ctx, comp, cls); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(b)
	}
	wg.Wait()

	s := p.Stats()
	// Sum of member bytes must equal the pool total (no accounting drift).
	var sum int64
	for _, m := range s.Members {
		sum += m.LiveBytes
	}
	if sum != s.LiveBytes {
		t.Fatalf("accounting drift: members sum %d, pool total %d", sum, s.LiveBytes)
	}
	if s.LiveBytes > s.CeilingBytes {
		t.Fatalf("settled over ceiling: live=%d ceiling=%d", s.LiveBytes, s.CeilingBytes)
	}
	for _, b := range builders {
		p.Detach(b)
	}
	if got := p.Stats().LiveBytes; got != 0 {
		t.Fatalf("detach-all left %d bytes accounted", got)
	}
}
