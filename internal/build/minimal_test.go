package build

import (
	"context"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/oracle"
	"bonsai/internal/topo"
)

// TestFreshAbstractionsPairwiseMinimal holds refinement to the coarseness
// Algorithm 1 promises (paper §5): the partition it returns is the coarsest
// stable one, so no two of its groups can be merged and still satisfy the
// local conditions. Over eight families (the datacenter at a stride of its
// classes), every fresh abstraction has each pair of groups other than the
// destination's merged, is reassembled over the class's liveness and prefs,
// and must then fail Checker.CheckAll on the Builder's graph and edge keys.
// CP-equivalence tests cannot see an over-refined abstraction, since one is
// sound and only less compressed; this is the oracle that can. A pair that
// merges cleanly is a finding, to be explained in docs/audit.md §9 or under
// ROADMAP item 10, not skipped.
func TestFreshAbstractionsPairwiseMinimal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		net    *config.Network
		stride int
	}{
		{"fattree-8", netgen.Fattree(8, netgen.PolicyShortestPath), 1},
		{"fattree-4-pb", netgen.Fattree(4, netgen.PolicyPreferBottom), 1},
		{"ring-13", netgen.Ring(13), 1},
		{"mesh-8", netgen.FullMesh(8), 1},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{}), 1},
		{"spineleaf-prefer-external", netgen.SpineLeaf(netgen.SpineLeafOptions{PreferExternal: true}), 1},
		{"wan-10-20-3", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3}), 1},
		{"datacenter", netgen.Datacenter(netgen.DCOptions{}), 32},
	} {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		comp := b.NewCompiler(true)
		mode := core.ModeEffective
		if b.HasBGP() {
			mode = core.ModeBGP
		}
		classes, pairs := 0, 0
		for ci, cls := range b.Classes() {
			if ci%tc.stride != 0 {
				continue
			}
			classes++
			abs, err := b.CompressFresh(context.Background(), comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			keys := b.EdgeKeyVec(comp, cls)
			live := topo.NewEdgeSet(len(keys))
			for i, k := range keys {
				if !k.Dead() {
					live.Set(i)
				}
			}
			edgeKey := func(u, v topo.NodeID) core.EdgeKey {
				if i, ok := b.G.EdgeIndex(u, v); ok {
					return keys[i]
				}
				return core.EdgeKey{ACLPermit: true}
			}
			prefs := b.PrefsFunc(cls)
			destGroup := abs.F[abs.Dest]
			for x := range abs.Groups {
				for y := x + 1; y < len(abs.Groups); y++ {
					if x == destGroup || y == destGroup {
						continue
					}
					pairs++
					merged := make([]int, len(abs.F))
					for u, g := range abs.F {
						if g == y {
							g = x
						}
						merged[u] = g
					}
					m := core.Assemble(b.G, abs.Dest, merged, core.AssembleOptions{Mode: mode, Prefs: prefs, LiveEdges: live})
					c := &oracle.Checker{Abs: m, G: b.G, EdgeKey: edgeKey}
					if c.CheckAll(mode, prefs) == nil {
						t.Errorf("%s %v: groups led by %s and %s merge and still satisfy the conditions",
							tc.name, cls.Prefix, b.G.Name(abs.Groups[x][0]), b.G.Name(abs.Groups[y][0]))
					}
				}
			}
		}
		comp.Close()
		t.Logf("%s: %d fresh abstractions, %d group pairs merged", tc.name, classes, pairs)
		if pairs == 0 && tc.name != "mesh-8" { // a full mesh compresses to its destination and one group
			t.Fatalf("%s: no pair of groups to merge", tc.name)
		}
	}
}
