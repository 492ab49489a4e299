package build

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

// bgpDiamond parses the paper's Figure 2 gadget from the root regress set
// (testdata/regress/figure2.cfg): three identically configured routers
// preferring peer-learned routes, the central case for BGP-effective
// abstraction and ∀∀ refinement.
func bgpDiamond() *config.Network {
	src, err := os.ReadFile("../../testdata/regress/figure2.cfg")
	if err != nil {
		panic(err)
	}
	n, err := config.ParseString(string(src))
	if err != nil {
		panic(err)
	}
	return n
}

// absEqual compares two abstractions field by field; dedup must return
// exactly what independent compression returns.
func absEqual(t *testing.T, tag string, got, want *core.Abstraction) {
	t.Helper()
	if got.Dest != want.Dest || got.AbsDest != want.AbsDest {
		t.Fatalf("%s: dest mismatch: got (%d,%d) want (%d,%d)", tag, got.Dest, got.AbsDest, want.Dest, want.AbsDest)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("%s: groups differ:\n got %v\nwant %v", tag, got.Groups, want.Groups)
	}
	if !reflect.DeepEqual(got.F, want.F) {
		t.Fatalf("%s: topology function differs", tag)
	}
	if !reflect.DeepEqual(got.Copies, want.Copies) {
		t.Fatalf("%s: copies differ:\n got %v\nwant %v", tag, got.Copies, want.Copies)
	}
	if !reflect.DeepEqual(got.RepEdge, want.RepEdge) {
		t.Fatalf("%s: representative edges differ:\n got %v\nwant %v", tag, got.RepEdge, want.RepEdge)
	}
	gn, wn := got.AbsG.NumNodes(), want.AbsG.NumNodes()
	if gn != wn {
		t.Fatalf("%s: abstract node count %d != %d", tag, gn, wn)
	}
	for u := 0; u < gn; u++ {
		if got.AbsG.Name(topo.NodeID(u)) != want.AbsG.Name(topo.NodeID(u)) {
			t.Fatalf("%s: abstract node %d named %q, want %q", tag, u,
				got.AbsG.Name(topo.NodeID(u)), want.AbsG.Name(topo.NodeID(u)))
		}
	}
	if !reflect.DeepEqual(got.AbsG.Edges(), want.AbsG.Edges()) {
		t.Fatalf("%s: abstract edges differ:\n got %v\nwant %v", tag, got.AbsG.Edges(), want.AbsG.Edges())
	}
	// Edges() is sorted; srp.Solve breaks ties by Succ's insertion order.
	for u := 0; u < gn; u++ {
		if g, w := got.AbsG.Succ(topo.NodeID(u)), want.AbsG.Succ(topo.NodeID(u)); !slices.Equal(g, w) {
			t.Fatalf("%s: abstract node %d: successor order %v, want %v", tag, u, g, w)
		}
	}
}

// TestDedupMatchesIndependentCompression is the transport property test:
// across structurally different networks (fattree symmetry, ring rotations,
// the BGP diamond's ∀∀/case-splitting path, mesh stars), deduplicated
// Compress must return abstractions identical — same groups, copies,
// abstract edges (Succ order included), representatives — to independently
// compressing every class with CompressFresh.
func TestDedupMatchesIndependentCompression(t *testing.T) {
	nets := []struct {
		name string
		net  *config.Network
	}{
		{"fattree", netgen.Fattree(8, netgen.PolicyShortestPath)},
		{"fattree-prefer-bottom", netgen.Fattree(4, netgen.PolicyPreferBottom)},
		{"ring", netgen.Ring(24)},
		{"mesh", netgen.FullMesh(12)},
		{"bgp-diamond", bgpDiamond()},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{
			Spines: 3, Leaves: 4, ExtPerLeaf: 2, PrefixesPerExt: 2,
		})},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			comp := b.NewCompiler(true)
			for _, cls := range b.Classes() {
				got, err := b.Compress(context.Background(), comp, cls)
				if err != nil {
					t.Fatal(err)
				}
				want, err := b.CompressFresh(context.Background(), comp, cls)
				if err != nil {
					t.Fatal(err)
				}
				absEqual(t, fmt.Sprintf("%s %v", tc.name, cls.Prefix), got, want)
			}
			cstats := b.AbstractionCacheStats()
			fresh, transported := cstats.Fresh, cstats.Transported
			// Every class is computed (fresh or transported) or served from
			// the identity cache (spineleaf: prefixes of one external share
			// a fingerprint).
			if int64(fresh)+transported+cstats.Served != int64(len(b.Classes())) {
				t.Fatalf("cache accounting: fresh=%d transported=%d served=%d classes=%d",
					fresh, transported, cstats.Served, len(b.Classes()))
			}
			if cstats.DuplicateFresh != 0 {
				t.Fatalf("duplicate fresh compressions: %+v", cstats)
			}
			// The symmetric evaluation networks must actually deduplicate —
			// the optimisation the benchmarks rely on.
			if tc.name == "fattree" || tc.name == "ring" || tc.name == "mesh" || tc.name == "spineleaf" {
				if fresh != 1 {
					t.Errorf("%s: expected 1 fresh compression, got %d (transported %d)",
						tc.name, fresh, transported)
				}
			}
		})
	}
}

// TestDedupCacheRace hammers the shared dedup cache from many workers with
// interleaved invalidation, under -race in CI. Every result must still match
// an independent compression.
func TestDedupCacheRace(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	classes := b.Classes()
	comp := b.NewCompiler(true)
	want := make([]*core.Abstraction, len(classes))
	for i, cls := range classes {
		if want[i], err = b.CompressFresh(context.Background(), comp, cls); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp := b.NewCompiler(true)
			for round := 0; round < 3; round++ {
				for i := range classes {
					cls := classes[(i+w)%len(classes)]
					abs, err := b.Compress(context.Background(), comp, cls)
					if err != nil {
						errs <- err
						return
					}
					ref := want[(i+w)%len(classes)]
					if abs.NumAbstractNodes() != ref.NumAbstractNodes() ||
						abs.NumAbstractEdges() != ref.NumAbstractEdges() {
						errs <- fmt.Errorf("worker %d: size mismatch for %v", w, cls.Prefix)
						return
					}
				}
				if w == 0 {
					b.InvalidateAbstractionCache()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
