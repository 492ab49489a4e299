// Package bonsai's repository-root benchmarks regenerate every table and
// figure of the paper's evaluation (§8) as testing.B harnesses. One
// benchmark (family) exists per table row group and per figure; run
//
//	go test -run '^$' -bench . -benchmem .
//
// and compare against EXPERIMENTS.md. Custom metrics report the quantities
// the paper tabulates (abstract nodes/links, compression ratios, roles,
// speedups) alongside wall-clock timings. These are micro-benchmarks for
// working on one layer: no baseline of them is committed, and what a PR is
// judged by is the benchmark in bench/ (README "Measuring").
package bonsai_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/verify"
)

// benchCompressSet compresses the network's destination classes (the first
// maxClasses of them when maxClasses > 0) once per iteration: total cost for
// the class set, not per EC. With dedup the Builder's cross-EC cache serves
// duplicate and symmetric classes, reset every iteration so each measures a
// cold full set; without it every class goes through CompressFresh — the
// ablation baseline the ≥5x dedup claim is measured against. Abstract sizes
// are reported as metrics (Table 1 columns).
func benchCompressSet(b *testing.B, net *config.Network, maxClasses int, dedup bool) {
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	classes := bd.Classes()
	if maxClasses > 0 && len(classes) > maxClasses {
		classes = classes[:maxClasses]
	}
	ctx := context.Background()
	comp := bd.NewCompiler(true)
	// Warm BDD tables (the paper reports BDD build time separately).
	if _, err := bd.CompressFresh(ctx, comp, classes[0]); err != nil {
		b.Fatal(err)
	}
	compress := bd.CompressFresh
	if dedup {
		compress = bd.Compress
	}
	var last *core.Abstraction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.InvalidateAbstractionCache()
		for _, cls := range classes {
			if last, err = compress(ctx, comp, cls); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(classes)), "classes")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(classes)), "ns/class")
	b.ReportMetric(float64(last.NumAbstractNodes()), "absNodes")
	b.ReportMetric(float64(last.NumAbstractEdges()), "absLinks")
	b.ReportMetric(float64(bd.G.NumNodes())/float64(last.NumAbstractNodes()), "nodeRatio")
	s := comp.M.Stats()
	b.ReportMetric(float64(s.Nodes), "bddNodes")
	if s.CacheMisses > 0 {
		b.ReportMetric(float64(s.CacheOverwrites)/float64(s.CacheMisses), "bddOverwriteRate")
	}
	if dedup {
		st := bd.AbstractionCacheStats()
		b.ReportMetric(float64(st.Fresh), "freshAbs")
		b.ReportMetric(float64(st.Transported), "transportedAbs")
		b.ReportMetric(float64(st.Served), "cacheServed")
	}
}

// benchCompress is benchCompressSet on a class sample with dedup on.
func benchCompress(b *testing.B, net *config.Network, sampleECs int) {
	benchCompressSet(b, net, sampleECs, true)
}

// BenchmarkTable1aFattree regenerates the Fattree rows of Table 1(a):
// 180/500/1125 concrete nodes all compress to 6 abstract nodes and 5 links
// per destination class (72/200/450 classes). Each iteration compresses the
// FULL class set; the dedup sub-benchmark exercises the cross-EC cache
// (identity + symmetry transport, reset per iteration) and the independent
// sub-benchmark compresses every class from scratch — their ratio is the
// dedup speedup on total work (≥5x).
func BenchmarkTable1aFattree(b *testing.B) {
	for _, k := range []int{12, 20, 30} {
		for _, mode := range []string{"dedup", "independent"} {
			b.Run(fmt.Sprintf("nodes=%d/%s", 5*k*k/4, mode), func(b *testing.B) {
				benchCompressSet(b, netgen.Fattree(k, netgen.PolicyShortestPath), 0, mode == "dedup")
			})
		}
	}
}

// BenchmarkTable1aRing regenerates the Ring rows of Table 1(a): n nodes
// compress to n/2+1 (path-length preservation bounds compression), and the
// per-EC cost grows with the diameter because refinement splits one
// distance class per sweep.
func BenchmarkTable1aRing(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchCompress(b, netgen.Ring(n), 2)
		})
	}
}

// BenchmarkTable1aRingFullSet compresses every ring class per iteration with
// dedup: rotations make all n classes symmetric, so one refinement run plus
// n-1 transports covers the network.
func BenchmarkTable1aRingFullSet(b *testing.B) {
	b.Run("nodes=100", func(b *testing.B) { benchCompress(b, netgen.Ring(100), 0) })
}

// BenchmarkTable1aMesh regenerates the Full Mesh rows of Table 1(a): any
// size compresses to 2 nodes and 1 link thanks to the destination-based
// prefix filters killing transit edges.
func BenchmarkTable1aMesh(b *testing.B) {
	for _, n := range []int{50, 150, 250} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchCompress(b, netgen.FullMesh(n), 4)
		})
	}
}

// BenchmarkTable1bDatacenter regenerates the datacenter row of Table 1(b)
// on the calibrated stand-in (197 routers, ~1.3k classes, 14k interfaces).
func BenchmarkTable1bDatacenter(b *testing.B) {
	net := netgen.Datacenter(netgen.DCOptions{})
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(bd.RoleCount(false, false)), "rolesFull")
	b.ReportMetric(float64(bd.RoleCount(true, false)), "rolesErased")
	b.ReportMetric(float64(bd.RoleCount(true, true)), "rolesNoStatics")
	benchCompress(b, net, 16)
}

// BenchmarkTable1bWAN regenerates the WAN row of Table 1(b) on the stand-in
// (1086 devices, eBGP+OSPF+static, neighbor-specific filters -> ~137 roles).
func BenchmarkTable1bWAN(b *testing.B) {
	net := netgen.WAN(netgen.WANOptions{})
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(bd.RoleCount(true, false)), "rolesErased")
	benchCompress(b, net, 8)
}

// BenchmarkFigure11 contrasts the fattree abstraction under the two
// policies of Figure 11: shortest-path stays at 6 nodes; the middle-tier-
// prefers-bottom policy needs a larger abstraction (BGP case splitting).
func BenchmarkFigure11(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    netgen.FattreePolicy
	}{
		{"shortest-path", netgen.PolicyShortestPath},
		{"prefer-bottom", netgen.PolicyPreferBottom},
	} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			benchCompress(b, netgen.Fattree(8, pol.p), 4)
		})
	}
}

// benchFig12 measures Figure 12 points of one topology family, one
// sub-benchmark per size: all-pairs reachability with per-query
// certification on the concrete and on the compressed network (compression
// included), through allPairs, which TestPaperNumbers checks the answers of.
// Every iteration builds the network afresh, so the compressed side always
// starts from a cold cross-EC cache.
func benchFig12(b *testing.B, family string, sizes []int) {
	for _, size := range sizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var concrete, compressed time.Duration
			for i := 0; i < b.N; i++ {
				_, conc, bon, err := allPairs(family, size, 8)
				if err != nil {
					b.Fatal(err)
				}
				concrete += conc.Total
				compressed += bon.Total
			}
			b.ReportMetric(float64(concrete.Nanoseconds())/float64(b.N), "concrete-ns")
			b.ReportMetric(float64(compressed.Nanoseconds())/float64(b.N), "bonsai-ns")
			b.ReportMetric(float64(concrete)/float64(compressed), "speedup")
		})
	}
}

// BenchmarkFigure12Fattree regenerates Figure 12(a): verification time vs
// fattree size (k = 4, 6, 8: 20, 45, 80 nodes). The concrete series grows
// super-linearly; the bonsai series (which includes compression time) stays
// near-flat — the widening gap is the paper's headline result.
func BenchmarkFigure12Fattree(b *testing.B) { benchFig12(b, "fattree", []int{4, 6, 8}) }

// BenchmarkFigure12Mesh regenerates Figure 12(b) on full meshes.
func BenchmarkFigure12Mesh(b *testing.B) { benchFig12(b, "mesh", []int{10, 20, 40}) }

// BenchmarkFigure12Ring regenerates Figure 12(c) on rings.
func BenchmarkFigure12Ring(b *testing.B) { benchFig12(b, "ring", []int{20, 40, 80}) }

// BenchmarkBatfishQuery regenerates the §8 single-query experiment: one
// port-to-port reachability query on the datacenter, concrete vs bonsai
// (the paper: 77 s with Bonsai, out-of-memory without).
func BenchmarkBatfishQuery(b *testing.B) {
	net := netgen.Datacenter(netgen.DCOptions{})
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	cls, src, err := verify.ResolveQuery(bd, "leaf-1-00", net.Routers["leaf-0-00"].Originate[0].String())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"concrete", "bonsai"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reach, err := verify.ClassReach(context.Background(), bd, nil, cls, mode == "bonsai")
				if err != nil {
					b.Fatal(err)
				}
				if !reach.Router(src).Every {
					b.Fatal("query flipped to unreachable")
				}
			}
		})
	}
}

// BenchmarkAblationTagErasure measures the §8 attribute-abstraction ablation
// on the datacenter: compressing with the unused-community-erasing h versus
// the full community universe (larger BDDs, more roles, bigger abstractions).
// Both arms refine on every iteration (CompressFresh): through Compress, each
// iteration after the first would be an identity-cache hit, and the arms
// would share one abstraction.
func BenchmarkAblationTagErasure(b *testing.B) {
	net := netgen.Datacenter(netgen.DCOptions{})
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	cls := bd.Classes()[1] // a leaf prefix (class 0 is the default route)
	for _, erase := range []bool{true, false} {
		erase := erase
		name := "erased"
		if !erase {
			name = "full-universe"
		}
		b.Run(name, func(b *testing.B) {
			comp := bd.NewCompiler(erase)
			var absNodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				abs, err := bd.CompressFresh(context.Background(), comp, cls)
				if err != nil {
					b.Fatal(err)
				}
				absNodes = abs.NumAbstractNodes()
			}
			b.StopTimer()
			b.ReportMetric(float64(absNodes), "absNodes")
			b.ReportMetric(float64(comp.M.Stats().Nodes), "bddNodes")
		})
	}
}

// BenchmarkAblationSharedCompiler quantifies amortising BDD construction
// across destination classes (one compiler reused, as Bonsai does) versus
// rebuilding the compiler per class.
func BenchmarkAblationSharedCompiler(b *testing.B) {
	net := netgen.Fattree(12, netgen.PolicyShortestPath)
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	classes := bd.Classes()[:8]
	b.Run("shared", func(b *testing.B) {
		comp := bd.NewCompiler(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bd.CompressFresh(context.Background(), comp, classes[i%len(classes)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-per-class", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comp := bd.NewCompiler(true)
			if _, err := bd.CompressFresh(context.Background(), comp, classes[i%len(classes)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPolicyEquivalence compares the cost of deciding policy
// equivalence the Bonsai way (compile to canonical BDDs once, then O(1)
// handle comparison) against re-deriving syntactic role signatures, the
// design choice §5.1 motivates.
func BenchmarkAblationPolicyEquivalence(b *testing.B) {
	net := netgen.Datacenter(netgen.DCOptions{})
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	cls := bd.Classes()[1]
	b.Run("bdd-canonical", func(b *testing.B) {
		comp := bd.NewCompiler(true)
		keyFn := bd.EdgeKeyFunc(comp, cls)
		edges := bd.G.Edges()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			k1 := keyFn(e.U, e.V)
			k2 := keyFn(e.U, e.V)
			if k1 != k2 {
				b.Fatal("canonical keys unstable")
			}
		}
	})
	b.Run("syntactic-signature", func(b *testing.B) {
		matched := map[string]bool{}
		_ = matched
		names := bd.Cfg.RouterNames()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := bd.Cfg.Routers[names[i%len(names)]]
			s1 := build.RoleSignature(r, nil, true, false)
			s2 := build.RoleSignature(r, nil, true, false)
			if s1 != s2 {
				b.Fatal("signatures unstable")
			}
		}
	})
}

// BenchmarkAblationModes contrasts the two refinement modes of §4 on the
// policy-rich fattree (Figure 11's prefer-bottom): ModeEffective (∀∃ only —
// NOT sound for BGP with loop prevention, measured for the ablation) versus
// ModeBGP (∀∀ strengthening around multi-preference groups plus case
// splitting). The sound mode pays with a larger abstraction and more
// refinement work.
func BenchmarkAblationModes(b *testing.B) {
	net := netgen.Fattree(8, netgen.PolicyPreferBottom)
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	cls := bd.Classes()[0]
	dest := bd.G.MustLookup(cls.Origins[0])
	comp := bd.NewCompiler(true)
	keyFn := bd.EdgeKeyFunc(comp, cls)
	prefsFn := bd.PrefsFunc(cls)
	for _, mode := range []struct {
		name string
		m    core.Mode
	}{
		{"forall-exists-unsound", core.ModeEffective},
		{"bgp-effective", core.ModeBGP},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				abs := core.FindAbstraction(bd.G, dest, core.Options{
					Mode: mode.m, EdgeKey: keyFn, Prefs: prefsFn,
				})
				nodes = abs.NumAbstractNodes()
			}
			b.ReportMetric(float64(nodes), "absNodes")
		})
	}
}

// BenchmarkCompilePolicies measures raw BDD compilation of the Figure 10
// style policies across a whole network.
func BenchmarkCompilePolicies(b *testing.B) {
	net := netgen.Datacenter(netgen.DCOptions{})
	bd, err := build.New(net)
	if err != nil {
		b.Fatal(err)
	}
	cls := bd.Classes()[1]
	edges := bd.G.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var comp *policy.Compiler
		comp = bd.NewCompiler(true)
		keyFn := bd.EdgeKeyFunc(comp, cls)
		for _, e := range edges {
			keyFn(e.U, e.V)
		}
	}
}

// BenchmarkBuildNew measures the constructor every Open and every Apply
// pays: validation, the SRP graph and the dense per-edge tables, on the
// serve-churn fat-tree and the two operational stand-ins.
func BenchmarkBuildNew(b *testing.B) {
	for _, c := range []struct {
		name string
		net  *config.Network
	}{
		{"fattree12", netgen.Fattree(12, netgen.PolicyShortestPath)},
		{"datacenter", netgen.Datacenter(netgen.DCOptions{})},
		{"wan", netgen.WAN(netgen.WANOptions{Backbone: 30, Sites: 80, SwitchesPerSite: 7})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := build.New(c.net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchApply measures single-delta Engine.Apply on the serve-churn network
// (Fattree 12) with every class warm, alternating a delta with its undo so
// the network returns to base every two iterations.
func benchApply(b *testing.B, do, undo bonsai.Delta) {
	ctx := context.Background()
	eng, err := bonsai.Open(netgen.Fattree(12, netgen.PolicyShortestPath))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := do
		if i%2 == 1 {
			d = undo
		}
		if _, err := eng.Apply(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyLinkFlap is the common serve-churn write: one link down,
// then up again. An edge router's export map is first used on its uplink
// to agg-0-0, so taking agg-0-0–edge-0-0 down moves where edge-0-0's map is
// first met along the edge list while agg-0-0–core-0 moves nothing; the
// policy tables are ordered by the configuration, so both flaps inherit
// every class signature.
func BenchmarkApplyLinkFlap(b *testing.B) {
	for _, peer := range []string{"core-0", "edge-0-0"} {
		b.Run(peer, func(b *testing.B) {
			ref := []bonsai.LinkRef{{A: "agg-0-0", B: peer}}
			benchApply(b, bonsai.Delta{LinkDown: ref}, bonsai.Delta{LinkUp: ref})
		})
	}
}

// BenchmarkApplyOrigin is the costlier serve-churn write: a prefix added to
// an edge router, then removed (a class appears and disappears).
func BenchmarkApplyOrigin(b *testing.B) {
	e := []bonsai.OriginEdit{{Router: "edge-0-0", Prefix: "10.250.1.0/24"}}
	benchApply(b, bonsai.Delta{AddOriginated: e}, bonsai.Delta{RemoveOriginated: e})
}

// BenchmarkColdVerdict is the benchmark's cold op as a plain testing.B, for
// profiling the compress path: parse the text, open, compress every class,
// verify all pairs, close (EXPERIMENTS.md "Where the cold verdict goes").
func BenchmarkColdVerdict(b *testing.B) {
	for _, c := range []struct {
		name string
		net  func() *config.Network // built only for the sub-benchmark that runs, so a profile holds one network
	}{
		{"fattree20", func() *config.Network { return netgen.Fattree(20, netgen.PolicyShortestPath) }},
		{"datacenter", func() *config.Network { return netgen.Datacenter(netgen.DCOptions{}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			text := config.PrintString(c.net())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := bonsai.ParseString(text)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := bonsai.Open(net)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Verify(ctx, bonsai.VerifyRequest{}); err != nil {
					b.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatacenterReadsThenVerify is one snapshot's work on Datacenter{}:
// a cold Open, one Reach per class, then Verify. It reports the reads' and
// the Verify's time and solves (reach-memo misses) per op.
func BenchmarkDatacenterReadsThenVerify(b *testing.B) {
	ctx := context.Background()
	net := netgen.Datacenter(netgen.DCOptions{})
	var reads, verifies time.Duration
	var readSolves, verifySolves int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := bonsai.Open(net)
		if err != nil {
			b.Fatal(err)
		}
		src := eng.Network().RouterNames()[0]
		start := time.Now()
		for _, dest := range eng.Classes() {
			if _, err := eng.Reach(ctx, src, dest); err != nil {
				b.Fatal(err)
			}
		}
		read, solves := time.Now(), eng.Stats().ReachMemoMisses
		if _, err := eng.Verify(ctx, bonsai.VerifyRequest{}); err != nil {
			b.Fatal(err)
		}
		reads += read.Sub(start)
		verifies += time.Since(read)
		readSolves += solves
		verifySolves += eng.Stats().ReachMemoMisses - solves
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(reads.Microseconds())/n/1e3, "read-ms")
	b.ReportMetric(float64(verifies.Microseconds())/n/1e3, "verify-ms")
	b.ReportMetric(float64(readSolves)/n, "read-solves")
	b.ReportMetric(float64(verifySolves)/n, "verify-solves")
}
