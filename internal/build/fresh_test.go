package build

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

// TestAbstractionsMatchParentDigest hashes every class's CompressFresh result
// (F, Groups, ColorSplits, AbsG.Edges(), RepEdge and Copies) on four networks
// and compares the digests with testdata/abstraction_digests.txt, captured
// before refinement numbered edge keys without a map and colored groups by a
// neighbor walk. Between them the networks take BGP ∀∀ strengthening and
// case splitting (prefer-bottom), transport-sized fat-trees, the operational
// datacenter's 1 297 classes and a WAN whose classes colour-split. The
// prefer-bottom fat-tree's line was captured again when ∀∀ came to bind a
// multi-preference group's in-edges as well (docs/audit.md §25).
func TestAbstractionsMatchParentDigest(t *testing.T) {
	want, err := os.ReadFile("testdata/abstraction_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, net := range []*config.Network{
		netgen.Datacenter(netgen.DCOptions{}),
		netgen.Fattree(8, netgen.PolicyPreferBottom),
		netgen.Fattree(10, netgen.PolicyShortestPath),
		netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3}),
	} {
		b, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		comp := b.NewCompiler(true)
		h := sha256.New()
		splits := 0
		for _, cls := range b.Classes() {
			a, err := b.CompressFresh(context.Background(), comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, cls.Prefix, a.F, a.Groups, a.ColorSplits, a.AbsG.Edges(), a.RepEdge, a.Copies)
			splits += a.ColorSplits
		}
		comp.Close()
		fmt.Fprintf(&got, "%s classes=%d color_splits=%d sha256=%x\n", net.Name, len(b.Classes()), splits, h.Sum(nil))
	}
	if got.String() != string(want) {
		t.Fatalf("abstractions differ from testdata/abstraction_digests.txt:\n%s", got.String())
	}
}

// TestFreshCompressionBytes bounds what one fresh refinement allocates, as
// TestTransportBytes bounds a transport: CompressFresh over every class of
// the operational datacenter, on a compiler whose relation cache is warm.
// Building a class's live adjacency through a map of its edge keys, with a
// sorted neighbor list per node, cost 117 × |E| here.
func TestFreshCompressionBytes(t *testing.T) {
	b, err := New(netgen.Datacenter(netgen.DCOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := b.NewCompiler(true)
	defer comp.Close()
	classes := b.Classes()
	for _, cls := range classes {
		if _, err := b.CompressFresh(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cls := range classes {
		if _, err := b.CompressFresh(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const ceiling = 105 // bytes per directed edge per fresh compression
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(classes)) / float64(b.G.NumEdges())
	t.Logf("one fresh compression allocates %.1f × |E| bytes (|E| = %d, %d classes)", perEdge, b.G.NumEdges(), len(classes))
	if perEdge > ceiling {
		t.Fatalf("one fresh compression on the datacenter allocates %.1f × |E| bytes, ceiling %d × |E|", perEdge, ceiling)
	}
}
