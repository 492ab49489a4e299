package bonsai_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"bonsai"
	"bonsai/internal/netgen"
)

// gauntletScenarios are the netgen scenarios the stream-vs-batch
// differential runs over: every generator family, including the shapes
// that exercise symmetry transport (fattree, ring, mesh, spine-leaf),
// local-preference case splitting (prefer-bottom), identity sharing
// (datacenter leaves, spine-leaf externals) and multi-protocol edges
// (WAN).
func gauntletScenarios() []struct {
	name string
	gen  func() *bonsai.Network
} {
	return []struct {
		name string
		gen  func() *bonsai.Network
	}{
		{"fattree", func() *bonsai.Network { return netgen.Fattree(8, netgen.PolicyShortestPath) }},
		{"fattree-prefer-bottom", func() *bonsai.Network { return netgen.Fattree(4, netgen.PolicyPreferBottom) }},
		{"ring", func() *bonsai.Network { return netgen.Ring(24) }},
		{"mesh", func() *bonsai.Network { return netgen.FullMesh(12) }},
		{"spineleaf", func() *bonsai.Network {
			return netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: 3, Leaves: 4, ExtPerLeaf: 2, PrefixesPerExt: 2})
		}},
		{"spineleaf-prefer-external", func() *bonsai.Network {
			return netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: 2, Leaves: 3, ExtPerLeaf: 2, PrefixesPerExt: 2, PreferExternal: true})
		}},
		{"datacenter", func() *bonsai.Network {
			return netgen.Datacenter(netgen.DCOptions{
				Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
				PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
			})
		}},
		{"wan", func() *bonsai.Network {
			return netgen.WAN(netgen.WANOptions{Backbone: 6, Sites: 4, SwitchesPerSite: 3})
		}},
	}
}

// collectRows drains a stream into a prefix-indexed map of per-class
// results, failing on duplicates.
func collectRows(t *testing.T, s *bonsai.Stream) map[string]bonsai.ClassResult {
	t.Helper()
	rows := make(map[string]bonsai.ClassResult)
	for r := range s.Results() {
		if _, dup := rows[r.Prefix]; dup {
			t.Fatalf("class %s streamed twice", r.Prefix)
		}
		rows[r.Prefix] = r
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestStreamMatchesBatch is the stream-vs-batch differential gauntlet: on
// every netgen scenario the parallel streaming pipeline (the leaders-first
// worker pool) must produce a CompressReport
// field-identical to the serial batch shape (workers=1 runs the plain
// in-order loop), and identical per-class topology sizes. Cached against
// uncached compression is TestDedupMatchesIndependentCompression's, per
// class, in internal/build. The subtests keep the "/dedup=true" suffix they
// are recorded under.
func TestStreamMatchesBatch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range gauntletScenarios() {
		t.Run(tc.name+"/dedup=true", func(t *testing.T) {
			net := tc.gen()
			engSerial, err := bonsai.Open(net, bonsai.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer engSerial.Close()
			batch, err := engSerial.Compress(ctx, bonsai.ClassSelector{})
			if err != nil {
				t.Fatal(err)
			}
			// Per-class reference rows: a second pass over the warm
			// serial engine (sizes are deterministic; provenance is not
			// compared).
			refStream, err := engSerial.CompressStream(ctx, bonsai.ClassSelector{})
			if err != nil {
				t.Fatal(err)
			}
			ref := collectRows(t, refStream)

			engPar, err := bonsai.Open(net, bonsai.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			defer engPar.Close()
			s, err := engPar.CompressStream(ctx, bonsai.ClassSelector{})
			if err != nil {
				t.Fatal(err)
			}
			rows := collectRows(t, s)
			stream := s.Report()

			if len(rows) != len(ref) || len(rows) != batch.ClassesCompressed {
				t.Fatalf("row counts: stream %d, ref %d, batch %d", len(rows), len(ref), batch.ClassesCompressed)
			}
			for p, r := range rows {
				w, ok := ref[p]
				if !ok {
					t.Fatalf("stream produced unknown class %s", p)
				}
				if r.AbstractNodes != w.AbstractNodes || r.AbstractLinks != w.AbstractLinks {
					t.Fatalf("class %s: stream %d/%d, batch %d/%d",
						p, r.AbstractNodes, r.AbstractLinks, w.AbstractNodes, w.AbstractLinks)
				}
			}
			if stream.Network != batch.Network {
				t.Fatalf("network info: stream %+v, batch %+v", stream.Network, batch.Network)
			}
			if stream.ClassesCompressed != batch.ClassesCompressed ||
				stream.SumAbstractNodes != batch.SumAbstractNodes ||
				stream.SumAbstractLinks != batch.SumAbstractLinks ||
				stream.NodeRatio != batch.NodeRatio ||
				stream.LinkRatio != batch.LinkRatio {
				t.Fatalf("aggregate mismatch:\nstream %+v\nbatch  %+v", stream, batch)
			}
			for name, st := range map[string]bonsai.CacheStats{"serial": batch.Cache, "stream": stream.Cache} {
				if st.DuplicateFresh != 0 {
					t.Fatalf("%s: duplicated fresh compressions: %+v", name, st)
				}
				classes := int64(batch.ClassesCompressed)
				if int64(st.Fresh)+st.Transported+st.Served < classes {
					t.Fatalf("%s: cache accounting: %+v over %d classes", name, st, classes)
				}
			}

			// Verify differential: the sched fan-out must report the
			// same verification result as the serial loop.
			vSerial, err := engSerial.Verify(ctx, bonsai.VerifyRequest{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			vPar, err := engPar.Verify(ctx, bonsai.VerifyRequest{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if vSerial.Mode != vPar.Mode || vSerial.Classes != vPar.Classes ||
				vSerial.Pairs != vPar.Pairs || vSerial.ReachablePairs != vPar.ReachablePairs ||
				vSerial.AbstractNodeSum != vPar.AbstractNodeSum {
				t.Fatalf("verify mismatch:\nserial %v\nsched  %v", vSerial, vPar)
			}
		})
	}
}

// TestStreamZeroDuplicateFresh asserts the deduplication contract: on
// a network with identity-shared classes (each spine-leaf external
// originates several prefixes with equal fingerprints), parallel streaming
// compression performs exactly one fresh refinement for the whole fabric,
// serves every identity-shared class from the cache, and never duplicates
// a fresh compression.
func TestStreamZeroDuplicateFresh(t *testing.T) {
	const leaves, ext, perExt = 4, 2, 3
	net := netgen.SpineLeaf(netgen.SpineLeafOptions{
		Spines: 3, Leaves: leaves, ExtPerLeaf: ext, PrefixesPerExt: perExt,
	})
	eng, err := bonsai.Open(net, bonsai.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := eng.CompressStream(context.Background(), bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	rows := collectRows(t, s)
	classes := leaves * ext * perExt
	groups := leaves * ext // one fingerprint per external peer
	if len(rows) != classes {
		t.Fatalf("streamed %d classes, want %d", len(rows), classes)
	}
	st := eng.Stats()
	if st.DuplicateFresh != 0 {
		t.Fatalf("duplicate fresh compressions: %+v", st)
	}
	// With parallel workers, leaders of *different* fingerprint groups may
	// refine concurrently before the first transport seed exists, so Fresh
	// is bounded by the worker count — never by timing beyond it, and never
	// more than one per group.
	if st.Fresh < 1 || st.Fresh > 4 {
		t.Fatalf("fresh = %d, want 1..workers: %+v", st.Fresh, st)
	}
	if int64(st.Fresh)+st.Transported != int64(groups) {
		t.Fatalf("leaders = %d, want %d (one per fingerprint group): %+v",
			int64(st.Fresh)+st.Transported, groups, st)
	}
	if st.Served != int64(classes-groups) {
		t.Fatalf("identity hits = %d, want %d: %+v", st.Served, classes-groups, st)
	}
	if st.Misses != int64(groups) {
		t.Fatalf("misses = %d, want %d: %+v", st.Misses, groups, st)
	}

	// Serially (one worker), leader-first ordering is total: the very
	// first leader's result seeds every later group, so exactly one fresh
	// refinement serves the whole fabric.
	serial, err := bonsai.Open(net, bonsai.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	if _, err := serial.Compress(context.Background(), bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	sst := serial.Stats()
	if sst.Fresh != 1 || sst.DuplicateFresh != 0 {
		t.Fatalf("serial fresh = %d (dup %d), want exactly 1: %+v", sst.Fresh, sst.DuplicateFresh, sst)
	}
}

// TestClassSelectorEdgeCases covers the selector corners: an unknown
// prefix errors (batch and stream alike), the empty selector means every
// class, a covering address resolves to its class, and Engine.Classes is
// deterministic across engines.
func TestClassSelectorEdgeCases(t *testing.T) {
	ctx := context.Background()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	eng, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if _, err := eng.Compress(ctx, bonsai.ClassSelector{Prefix: "203.0.113.0/24"}); err == nil {
		t.Fatal("unknown prefix accepted by Compress")
	}
	if _, err := eng.CompressStream(ctx, bonsai.ClassSelector{Prefix: "203.0.113.0/24"}); err == nil {
		t.Fatal("unknown prefix accepted by CompressStream")
	}
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{Prefix: "not-a-prefix"}); err == nil {
		t.Fatal("garbage prefix accepted")
	}

	all, err := eng.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if all.ClassesCompressed != 8 || all.Network.Classes != 8 {
		t.Fatalf("empty selector compressed %d of %d classes, want all 8",
			all.ClassesCompressed, all.Network.Classes)
	}

	// A covering address inside a class's range selects that class.
	one, err := eng.Compress(ctx, bonsai.ClassSelector{Prefix: "10.0.0.128/32"})
	if err != nil {
		t.Fatal(err)
	}
	if one.ClassesCompressed != 1 {
		t.Fatalf("covering selector: %+v", one)
	}

	// MaxClasses larger than the class count is the full set; 0 defers.
	big, err := eng.Compress(ctx, bonsai.ClassSelector{MaxClasses: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if big.ClassesCompressed != 8 {
		t.Fatalf("oversized MaxClasses: %+v", big)
	}

	// Classes ordering is deterministic across independently opened engines.
	eng2, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	a, b := eng.Classes(), eng2.Classes()
	if len(a) != len(b) {
		t.Fatalf("class counts differ: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("class order differs at %d: %s != %s", i, a[i], b[i])
		}
	}
}

// TestEngineClose covers the shutdown contract: operations after Close
// return ErrClosed, Close is idempotent, and closing with a stream in
// flight lets the stream finish.
func TestEngineClose(t *testing.T) {
	ctx := context.Background()
	eng, err := bonsai.Open(netgen.Fattree(4, netgen.PolicyShortestPath), bonsai.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool so Close has compilers to free.
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err) // double-Close is a no-op
	}
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("Compress after Close: %v", err)
	}
	if _, err := eng.CompressStream(ctx, bonsai.ClassSelector{}); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("CompressStream after Close: %v", err)
	}
	if _, err := eng.Verify(ctx, bonsai.VerifyRequest{}); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("Verify after Close: %v", err)
	}
	if _, err := eng.Reach(ctx, "edge-1-1", "10.0.0.0/24"); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("Reach after Close: %v", err)
	}
	if _, err := eng.Roles(ctx, bonsai.RolesRequest{}); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("Roles after Close: %v", err)
	}
	if _, err := eng.Routes(ctx, "10.0.0.0/24"); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("Routes after Close: %v", err)
	}
	if _, err := eng.Apply(ctx, bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}); !errors.Is(err, bonsai.ErrClosed) {
		t.Fatalf("Apply after Close: %v", err)
	}

	// Close while a stream is in flight: the stream completes, its
	// compilers are freed on release.
	eng2, err := bonsai.Open(netgen.Fattree(6, netgen.PolicyShortestPath), bonsai.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng2.CompressStream(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	var closeOnce sync.Once
	n := 0
	for range s.Results() {
		n++
		closeOnce.Do(func() {
			if err := eng2.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 18 { // k=6: k²/2 classes
		t.Fatalf("in-flight stream yielded %d classes, want 18", n)
	}
}

// TestStreamEarlyBreakCancels: breaking out of Results cancels the
// remaining work, Err reports the cancellation, and the engine stays
// usable.
func TestStreamEarlyBreakCancels(t *testing.T) {
	ctx := context.Background()
	eng, err := bonsai.Open(netgen.Ring(32), bonsai.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := eng.CompressStream(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range s.Results() {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("consumed %d rows", seen)
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after break: %v", err)
	}
	rep := s.Report()
	if rep.ClassesCompressed < 3 || rep.ClassesCompressed > 32 {
		t.Fatalf("partial report: %+v", rep)
	}
	// The engine survives an abandoned stream.
	full, err := eng.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if full.ClassesCompressed != 32 {
		t.Fatalf("engine unusable after break: %+v", full)
	}
}

// TestStreamMemoryBudget: a streaming run under a budget half the
// unbounded footprint keeps the store within it (plus the pinned seed
// floor), evicts, and still produces identical per-class results.
func TestStreamMemoryBudget(t *testing.T) {
	ctx := context.Background()
	net := netgen.Fattree(12, netgen.PolicyShortestPath)

	free, err := bonsai.Open(net, bonsai.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	fs, err := free.CompressStream(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, fs)
	baseline := free.Stats().LiveBytes
	if baseline <= 0 {
		t.Fatalf("no baseline footprint: %+v", free.Stats())
	}

	budget := baseline / 2
	bounded, err := bonsai.Open(net, bonsai.WithWorkers(2), bonsai.WithMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Close()
	bs, err := bounded.CompressStream(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, bs)
	if len(got) != len(want) {
		t.Fatalf("bounded run compressed %d classes, want %d", len(got), len(want))
	}
	for p, r := range got {
		w := want[p]
		if r.AbstractNodes != w.AbstractNodes || r.AbstractLinks != w.AbstractLinks {
			t.Fatalf("class %s: bounded %d/%d, unbounded %d/%d",
				p, r.AbstractNodes, r.AbstractLinks, w.AbstractNodes, w.AbstractLinks)
		}
	}
	st := bounded.Stats()
	if st.BudgetBytes != budget {
		t.Fatalf("budget not applied: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("half budget evicted nothing: %+v", st)
	}
	// Peak may overshoot by the entry completing when eviction runs plus
	// the pinned seed floor; anything near the unbounded footprint means
	// the bound is not working.
	if st.PeakBytes > budget+baseline/4 {
		t.Fatalf("peak %d bytes under budget %d (unbounded %d)", st.PeakBytes, budget, baseline)
	}
	if st.DuplicateFresh != 0 {
		t.Fatalf("duplicate fresh under eviction: %+v", st)
	}
}
