package build

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bonsai/internal/config"
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

// TestAdoptionAcrossRenamedRouterCountsVanishedPrefixes: a successor whose
// router names differ adopts nothing, and its stats are the plain class diff
// — every class new, Removed only the prefixes that vanished — as an
// oversized delta's cold successor reports it (ColdStats), not every class
// the predecessor had.
func TestAdoptionAcrossRenamedRouterCountsVanishedPrefixes(t *testing.T) {
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
	renamed, err := config.ParseString(strings.ReplaceAll(config.PrintString(cfg), "core-0", "core-x"))
	if err != nil {
		t.Fatal(err)
	}
	renamed.Routers["edge-0-0"].Originate = nil // its class vanishes
	b2, err := New(renamed)
	if err != nil {
		t.Fatal(err)
	}
	comp2 := b2.NewCompiler(true)
	stats, err := b2.AdoptFrom(ctx, comp2, old, AdoptDelta{})
	if err != nil {
		t.Fatal(err)
	}
	want := AdoptStats{NewClasses: len(old.Classes()) - 1, RemovedClasses: 1}
	if !reflect.DeepEqual(stats, want) || !reflect.DeepEqual(ColdStats(old, b2), want) {
		t.Fatalf("adoption across a renamed router: %+v, want %+v", stats, want)
	}
}

// TestStoreChargesStaticMaskAsSlice: a class's static mask is a topo.EdgeSet,
// one bit per edge, so an entry that has one may cost at most |E|/8 bytes,
// rounded up to words, plus a slice header more than the same entry without
// it. Eviction under a budget is only
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
		extra, limit := entryBytes(e)-entryBytes(&bare), int64(8*((b.G.NumEdges()+63)/64))+24
		if extra <= 0 || extra > limit {
			t.Fatalf("static mask over %d edges charged %d bytes, want 1..%d", b.G.NumEdges(), extra, limit)
		}
		return
	}
	t.Fatal("no datacenter class has an applicable static")
}

// TestStoreChargesSharedVectorsOnce: a fresh, a transported and a
// store-loaded entry each keep one liveness set, the entry's own (the
// abstraction holds none), and every entry's fingerprint is its signature's
// string. Each array is charged once: the entry without its set costs
// exactly the set's bytes less, and dropping the signature's fingerprint
// costs nothing.
func TestStoreChargesSharedVectorsOnce(t *testing.T) {
	ctx := context.Background()
	check := func(tag string, b *Builder, want Provenance) {
		t.Helper()
		for _, cls := range b.Classes() {
			e := b.store.entries[b.fpByPrefix[cls.Prefix]]
			if e == nil || e.out.prov() != want {
				continue
			}
			if len(e.live) != (b.G.NumEdges()+63)/64 {
				t.Fatalf("%s: liveness set of %d words, want one bit for each of %d edges", tag, len(e.live), b.G.NumEdges())
			}
			own := *e
			own.live = nil
			if got, want := entryBytes(e)-entryBytes(&own), 8*int64(cap(e.live)); got != want {
				t.Fatalf("%s: the liveness set adds %d bytes, want %d", tag, got, want)
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

// TestStoreChargesGenerators: a seed's orbit is charged with it, and the
// store's total follows every recharge. After each class of Fattree(12) the
// store's bytes are the sum of its entries' charges, each charge is what
// entryBytes prices the entry at now, and the pool the store belongs to holds
// the same total. The seed's charge covers its 14 generators (|V| words
// each) and its Schreier vector; InvalidateAbstractionCache drops the
// orbits with the entries, so the next seed starts with none.
func TestStoreChargesGenerators(t *testing.T) {
	b, err := New(netgen.Fattree(12, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(0)
	pool.Attach(b, "fattree-12", 0)
	ctx := context.Background()
	comp := b.NewCompiler(true)
	st := &b.store
	for _, cls := range b.Classes() {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, e := range st.entries {
			if e.bytes != entryBytes(e) {
				t.Fatalf("%s: entry charged %d bytes, priced at %d", cls.Prefix, e.bytes, entryBytes(e))
			}
			sum += e.bytes
		}
		if st.bytes != sum {
			t.Fatalf("%s: store holds %d bytes, its entries %d", cls.Prefix, st.bytes, sum)
		}
		if got := pool.Stats().LiveBytes; got != st.bytes {
			t.Fatalf("%s: pool holds %d bytes, the store %d", cls.Prefix, got, st.bytes)
		}
	}
	if len(st.orbits) != 1 {
		t.Fatalf("%d seeds have an orbit, want 1", len(st.orbits))
	}
	seed := st.orbits[0]
	n := int64(b.G.NumNodes())
	bare := *seed
	bare.orbit = nil
	gens := int64(len(seed.orbit.gens))
	if extra := entryBytes(seed) - entryBytes(&bare); gens != 14 || extra < gens*8*n+2*4*n {
		t.Fatalf("the orbit's %d generators over %d routers are charged %d bytes", gens, n, extra)
	}

	b.InvalidateAbstractionCache()
	if len(st.orbits) != 0 || st.bytes != 0 || pool.Stats().LiveBytes != 0 {
		t.Fatalf("after invalidation: %d orbits, %d store bytes, %d pool bytes", len(st.orbits), st.bytes, pool.Stats().LiveBytes)
	}
	for _, cls := range b.Classes()[:2] {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.orbits) != 1 || len(st.orbits[0].orbit.gens) != 1 {
		t.Fatalf("a new seed's first search left %d orbits", len(st.orbits))
	}
}
