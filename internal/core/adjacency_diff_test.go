package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

// TestAdjacencyMatchesReference holds buildAdjacency and colorSplit to the
// references in adjacency_test.go: on TestWorklistMatchesSweepRandom's 80
// random graphs (the same seed and draws, so the same graphs, keys and
// destinations), on every generator family with compiled keys, and on a
// Ring(13), where every class colour-splits the antipodal pair.
func TestAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(36)
		g := topo.New()
		ids := make([]topo.NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(fmt.Sprintf("n%02d", i))
		}
		for i := 1; i < n; i++ {
			g.AddLink(ids[i], ids[rng.Intn(i)])
		}
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddLink(ids[a], ids[b])
			}
		}
		keys := make(map[topo.Edge]core.EdgeKey, g.NumEdges())
		for _, e := range g.Edges() {
			keys[e] = randomEdgeKey(rng)
		}
		for range ids {
			rng.Intn(3) // the prefs draws, which adjacency does not read
			rng.Intn(2)
		}
		dest := ids[rng.Intn(n)]
		if _, err := core.AdjacencyMatchesReference(g, dest, core.Options{
			EdgeKey: func(u, v topo.NodeID) core.EdgeKey { return keys[topo.Edge{U: u, V: v}] },
		}); err != nil {
			t.Fatalf("trial %d (n=%d dest=%d): %v", trial, n, dest, err)
		}
	}

	for _, tc := range []struct {
		net        *config.Network
		wantSplits int // classes whose ∀∃ groups colour-split; -1: any
	}{
		{netgen.Fattree(4, netgen.PolicyShortestPath), -1},
		{netgen.Fattree(4, netgen.PolicyPreferBottom), -1},
		{netgen.Ring(17), -1},
		{netgen.Ring(13), 13},
		{netgen.FullMesh(10), -1},
		{netgen.Datacenter(netgen.DCOptions{Clusters: 2, LeavesPerClus: 4, Cores: 2, TagGroups: 4}), -1},
		{netgen.WAN(netgen.WANOptions{Backbone: 4, Sites: 3, SwitchesPerSite: 2}), -1},
		{netgen.SpineLeaf(netgen.SpineLeafOptions{}), -1},
	} {
		bd, err := build.New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		comp := bd.NewCompiler(true)
		splitClasses := 0
		for _, cls := range bd.Classes() {
			dest := bd.G.MustLookup(cls.Origins[0])
			s, err := core.AdjacencyMatchesReference(bd.G, dest, core.Options{EdgeKeys: bd.EdgeKeyVec(comp, cls)})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.net.Name, cls.Prefix, err)
			}
			if s > 0 {
				splitClasses++
			}
		}
		if tc.wantSplits >= 0 && splitClasses != tc.wantSplits {
			t.Fatalf("%s: %d classes colour-split a ∀∃ group, want %d", tc.net.Name, splitClasses, tc.wantSplits)
		}
	}
}
