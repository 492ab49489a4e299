package build

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

// isoPair returns the signatures of the Builder's first class and of the
// last class the search relates to it (the first class itself when there is
// no other), with the permutation found.
func isoPair(t *testing.T, b *Builder) (sa, sb *classSig, pi []topo.NodeID) {
	t.Helper()
	classes := b.Classes()
	sa, err := b.classSignature(classes[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(classes) - 1; i >= 0; i-- {
		if sb, err = b.classSignature(classes[i]); err != nil {
			t.Fatal(err)
		}
		if pi, _ = b.findIso(sa, sb); pi != nil {
			return sa, sb, pi
		}
	}
	t.Fatal("no class is related to the first, not even itself")
	return nil, nil, nil
}

// TestVerifyIsoRefusesWrongPermutations lies to the sweep every transport's
// soundness rests on. The permutation the search finds must verify, with the
// edge permutation it induces; every one-step corruption of it — or of the
// class it maps onto — must be refused, which is what sends Compress to
// CompressFresh.
func TestVerifyIsoRefusesWrongPermutations(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *config.Network
	}{
		{"fattree", netgen.Fattree(8, netgen.PolicyShortestPath)},
		{"ring", netgen.Ring(24)},
		{"mesh", netgen.FullMesh(12)},
		{"bgp-diamond", bgpDiamond()},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{
			Spines: 3, Leaves: 4, ExtPerLeaf: 2, PrefixesPerExt: 2,
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			sa, sb, pi := isoPair(t, b)
			n := len(pi)

			epi, ok := b.verifyIso(sa, sb, pi)
			if !ok {
				t.Fatal("the search's own permutation does not verify")
			}
			for i, e := range b.G.Edges() {
				if f, ok := b.G.EdgeIndex(pi[e.U], pi[e.V]); !ok || int(epi[i]) != f {
					t.Fatalf("edge %d %v: epi = %d, EdgeIndex of its image = %d (%v)", i, e, epi[i], f, ok)
				}
			}

			refused := func(what string, sb *classSig, pi []topo.NodeID) {
				t.Helper()
				if _, ok := b.verifyIso(sa, sb, pi); ok {
					t.Fatalf("%s: accepted", what)
				}
			}
			// Two routers of different role trade images. Colors are
			// isomorphism invariants, so a differing pair has no automorphism
			// between its images and the swapped π is a bijection that must
			// fail on some edge.
			for u := 0; u < n; u++ {
				for d := 1; d < n; d++ {
					if v := (u + d) % n; sa.colors[u] != sa.colors[v] {
						bad := slices.Clone(pi)
						bad[u], bad[v] = pi[v], pi[u]
						refused("routers of different role swapped", sb, bad)
						break
					}
				}
			}
			// A router lands on the image of one it is not adjacent to. Where
			// the two share every neighbour (two cores of a fat-tree plane)
			// each edge still has an image, and only π no longer being a
			// bijection gives the lie away.
			for u := 0; u < n; u++ {
				for x := 0; x < n; x++ {
					if x != u && !b.G.HasEdge(topo.NodeID(u), topo.NodeID(x)) {
						bad := slices.Clone(pi)
						bad[u] = pi[x]
						refused("router mapped onto a non-neighbour's image", sb, bad)
					}
				}
			}
			// The destination's image moves (π stays a bijection), or the
			// target class's destination does and nothing else.
			for u := 0; u < n; u++ {
				if topo.NodeID(u) != sa.dest {
					bad := slices.Clone(pi)
					bad[u], bad[sa.dest] = pi[sa.dest], pi[u]
					refused("destination's image moved", sb, bad)
					moved := *sb
					moved.dest = pi[u]
					refused("target destination moved", &moved, pi)
				}
			}
			// One origin bit of the target class flips.
			for w := 0; w < n; w++ {
				flipped := *sb
				flipped.origin = slices.Clone(sb.origin)
				flipped.origin[w] = !flipped.origin[w]
				refused("origin bit flipped", &flipped, pi)
			}
			// One edge of the target class changes label and no edge goes
			// missing: a static route appears on it, or leaves it.
			for f := range b.G.Edges() {
				relabelled := *sb
				relabelled.statics = make(edgeMask, b.G.NumEdges())
				copy(relabelled.statics, sb.statics)
				relabelled.statics[f] = !relabelled.statics[f]
				refused("edge label changed", &relabelled, pi)
			}
		})
	}
}

// TestTransportBytes is a ceiling on what one symmetry transport allocates,
// in bytes per directed edge: on Fattree(12) (1 728 edges) every class after
// the first is transported, 27.0 × |E| bytes each as measured when transport
// stopped building per-edge records, 50.3 × |E| while core.Assemble still
// sorted one 24-byte record per live edge. A per-edge record array coming
// back, there or in the sweep, fails here by name.
func TestTransportBytes(t *testing.T) {
	b, err := New(netgen.Fattree(12, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := b.NewCompiler(true)
	classes := b.Classes()
	if _, err := b.Compress(ctx, comp, classes[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cls := range classes[1:] {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	rest := len(classes) - 1
	if got := b.AbstractionCacheStats().Transported; got != int64(rest) {
		t.Fatalf("%d of %d classes transported", got, rest)
	}
	const ceiling = 36 // bytes per directed edge per transport
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(rest) / float64(b.G.NumEdges())
	t.Logf("one transport allocates %.1f × |E| bytes (|E| = %d)", perEdge, b.G.NumEdges())
	if perEdge > ceiling {
		t.Fatalf("one transport on Fattree(12) allocates %.1f × |E| bytes, ceiling %d × |E|", perEdge, ceiling)
	}
}
