package build

import (
	"context"
	"testing"

	"bonsai/internal/netgen"
)

// TestStoreBudgetEvictsAndRecompresses drives the bounded store through its
// whole life cycle on a fattree: fill, shrink the budget, verify eviction
// spared the pinned transport seed, and verify an evicted class recompresses
// on its next query to a field-identical abstraction.
func TestStoreBudgetEvictsAndRecompresses(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := b.NewCompiler(true)
	classes := b.Classes()
	for _, cls := range classes {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	st := b.AbstractionCacheStats()
	if st.Misses != int64(len(classes)) || st.Fresh != 1 || st.Transported != int64(len(classes)-1) {
		t.Fatalf("cold fill stats: %+v", st)
	}
	if st.LiveBytes <= 0 || st.PeakBytes < st.LiveBytes || st.Evictions != 0 {
		t.Fatalf("accounting: %+v", st)
	}

	// A budget of one byte evicts everything evictable; the pinned seed
	// stays (the symmetry family must keep compressing via transport).
	b.SetAbstractionBudget(1)
	st = b.AbstractionCacheStats()
	if st.Evictions != int64(len(classes)-1) {
		t.Fatalf("evictions = %d, want %d: %+v", st.Evictions, len(classes)-1, st)
	}
	if st.LiveBytes <= 0 {
		t.Fatalf("pinned seed evicted: %+v", st)
	}
	if st.BudgetBytes != 1 {
		t.Fatalf("budget not recorded: %+v", st)
	}

	// An evicted class is a plain miss: recomputed (transported again via
	// the surviving seed), field-identical to an uncached compression.
	cls := classes[len(classes)-1]
	got, prov, err := b.CompressTagged(ctx, comp, cls)
	if err != nil {
		t.Fatal(err)
	}
	if prov != ProvTransported {
		t.Fatalf("recompression provenance = %v", prov)
	}
	want, err := b.CompressFresh(ctx, comp, cls)
	if err != nil {
		t.Fatal(err)
	}
	absEqual(t, "recompress-after-evict", got, want)
	st2 := b.AbstractionCacheStats()
	if st2.Misses != st.Misses+1 {
		t.Fatalf("recompression not a miss: %+v -> %+v", st, st2)
	}
	if st2.DuplicateFresh != 0 {
		t.Fatalf("duplicate fresh compressions: %+v", st2)
	}

	// Restoring an unbounded budget lets entries accumulate again.
	b.SetAbstractionBudget(0)
	for _, cls := range classes {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	st3 := b.AbstractionCacheStats()
	if st3.LiveBytes <= st.LiveBytes {
		t.Fatalf("store did not refill: %+v", st3)
	}
}

// TestStoreEvictionKeepsWithinBudget checks the LRU actually bounds the
// accounted footprint when the budget admits a few entries.
func TestStoreEvictionKeepsWithinBudget(t *testing.T) {
	b, err := New(netgen.Ring(24))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := b.NewCompiler(true)
	classes := b.Classes()
	// Size the budget from one completed entry: room for about three.
	if _, err := b.Compress(ctx, comp, classes[0]); err != nil {
		t.Fatal(err)
	}
	one := b.AbstractionCacheStats().LiveBytes
	b.SetAbstractionBudget(3 * one)
	for _, cls := range classes[1:] {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	st := b.AbstractionCacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 3*one, st)
	}
	// The footprint may exceed the budget only by the pinned seed floor.
	if st.LiveBytes > 3*one+one {
		t.Fatalf("footprint way over budget: %+v", st)
	}
}

// TestAdoptionTreatsEvictedAsCold: after eviction, AdoptFrom must count the
// evicted classes as new (cold), not fail.
func TestAdoptionTreatsEvictedAsCold(t *testing.T) {
	cfg := netgen.Fattree(4, netgen.PolicyShortestPath)
	old, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := old.NewCompiler(true)
	for _, cls := range old.Classes() {
		if _, err := old.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	old.SetAbstractionBudget(1) // keep only the pinned seed

	b2, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	comp2 := b2.NewCompiler(true)
	stats, err := b2.AdoptFrom(ctx, comp2, old, AdoptDelta{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(b2.Classes())
	if stats.Adopted+stats.NewClasses != total || stats.Invalidated != 0 {
		t.Fatalf("adoption after eviction: %+v (total %d)", stats, total)
	}
	if stats.Adopted == 0 {
		t.Fatalf("pinned seed not adopted: %+v", stats)
	}
	if stats.NewClasses == 0 {
		t.Fatalf("evicted classes not treated as cold: %+v", stats)
	}
	// The adopting builder must still answer every class.
	for _, cls := range b2.Classes() {
		if _, err := b2.Compress(ctx, comp2, cls); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreChargesStaticMaskAsSlice: a class's static mask is a []bool over
// G.Edges(), so an entry that has one may cost at most |E| bytes plus a slice
// header more than the same entry without it. Eviction under a budget is only
// as good as this figure; priced as a map it was half the store on the
// operational networks.
func TestStoreChargesStaticMaskAsSlice(t *testing.T) {
	b, err := New(netgen.Datacenter(netgen.DCOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	for _, cls := range b.Classes() {
		if b.staticMask(cls) == nil {
			continue
		}
		if _, err := b.Compress(context.Background(), comp, cls); err != nil {
			t.Fatal(err)
		}
		e := b.store.entries[b.fpByPrefix[cls.Prefix]]
		bare := *e
		sig := *e.sig
		sig.statics = nil
		bare.sig = &sig
		extra, limit := entryBytes(e)-entryBytes(&bare), int64(b.G.NumEdges())+24
		if extra <= 0 || extra > limit {
			t.Fatalf("static mask over %d edges charged %d bytes, want 1..%d", b.G.NumEdges(), extra, limit)
		}
		return
	}
	t.Fatal("no datacenter class has an applicable static")
}

// TestStoreChargesSharedVectorsOnce: a fresh entry keeps its abstraction's
// liveness vector, a transported entry's abstraction is assembled over the
// entry's mapped vector, and a store-loaded entry decodes one vector for
// both; every entry's fingerprint is its signature's string. Each array is
// charged once. A copy of the entry whose own vector is a second array (as
// an adopted entry's is: its abstraction is its predecessor's) costs exactly
// the abstraction's vector more, and dropping the signature's fingerprint
// costs nothing.
func TestStoreChargesSharedVectorsOnce(t *testing.T) {
	ctx := context.Background()
	check := func(tag string, b *Builder, want Provenance) {
		t.Helper()
		for _, cls := range b.Classes() {
			e := b.store.entries[b.fpByPrefix[cls.Prefix]]
			if e == nil || e.src != want {
				continue
			}
			if &e.live[0] != &e.abs.Live[0] {
				t.Fatalf("%s: entry and abstraction hold two liveness vectors", tag)
			}
			own := *e
			own.live = make([]bool, len(e.live), cap(e.live))
			if got, want := entryBytes(&own)-entryBytes(e), 24+int64(cap(e.abs.Live)); got != want {
				t.Fatalf("%s: a second liveness array adds %d bytes, want %d: the shared one is charged twice", tag, got, want)
			}
			sig := *e.sig
			sig.fp = ""
			bare := *e
			bare.sig = &sig
			if extra := entryBytes(e) - entryBytes(&bare); extra != 0 {
				t.Fatalf("%s: the signature's fingerprint, e.fp's string, is charged %d bytes again", tag, extra)
			}
			return
		}
		t.Fatalf("%s: no %v entry", tag, want)
	}

	dc, err := New(netgen.Datacenter(netgen.DCOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Compress(ctx, dc.NewCompiler(true), dc.Classes()[0]); err != nil {
		t.Fatal(err)
	}
	check("fresh datacenter entry", dc, ProvFresh)

	ft, err := New(netgen.Fattree(6, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	data := saveToBuffer(t, ft)
	check("transported Fattree(6) entry", ft, ProvTransported)

	loaded := rebuilt(t, ft)
	if _, err := loaded.loadRelationStore(data); err != nil {
		t.Fatal(err)
	}
	check("store-loaded Fattree(6) entry", loaded, ProvCached)
}
