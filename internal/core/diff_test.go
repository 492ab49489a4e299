// Differential property tests for the worklist refinement engine: across
// the generator scenarios and randomized graphs, FindAbstraction (worklist
// scheduling) must return an Abstraction whose every field except the
// diagnostic Iterations counter matches FindAbstractionSweep (the retained
// naive reference scheduler) exactly. This is the guarantee the cross-class
// transport and incremental adoption layers of internal/build lean on: the
// worklist is a scheduling change only, never a partition change.
package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bonsai/internal/bdd"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

// requireIdentical compares every scheduling-independent Abstraction field.
func requireIdentical(t *testing.T, tag string, got, want *core.Abstraction) {
	t.Helper()
	if got.Dest != want.Dest || got.AbsDest != want.AbsDest {
		t.Fatalf("%s: dest mismatch: got (%d,%d) want (%d,%d)", tag, got.Dest, got.AbsDest, want.Dest, want.AbsDest)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("%s: groups differ:\n got %v\nwant %v", tag, got.Groups, want.Groups)
	}
	if !reflect.DeepEqual(got.F, want.F) {
		t.Fatalf("%s: topology function differs:\n got %v\nwant %v", tag, got.F, want.F)
	}
	if !reflect.DeepEqual(got.Copies, want.Copies) {
		t.Fatalf("%s: copies differ:\n got %v\nwant %v", tag, got.Copies, want.Copies)
	}
	if !slices.Equal(got.RepEdge, want.RepEdge) {
		t.Fatalf("%s: representative edges differ:\n got %v\nwant %v", tag, got.RepEdge, want.RepEdge)
	}
	if got.ColorSplits != want.ColorSplits {
		t.Fatalf("%s: ColorSplits %d != %d", tag, got.ColorSplits, want.ColorSplits)
	}
	if gn, wn := got.AbsG.NumNodes(), want.AbsG.NumNodes(); gn != wn {
		t.Fatalf("%s: abstract node count %d != %d", tag, gn, wn)
	}
	for u := 0; u < got.AbsG.NumNodes(); u++ {
		if got.AbsG.Name(topo.NodeID(u)) != want.AbsG.Name(topo.NodeID(u)) {
			t.Fatalf("%s: abstract node %d named %q, want %q", tag, u,
				got.AbsG.Name(topo.NodeID(u)), want.AbsG.Name(topo.NodeID(u)))
		}
	}
	if !reflect.DeepEqual(got.AbsG.Edges(), want.AbsG.Edges()) {
		t.Fatalf("%s: abstract edges differ:\n got %v\nwant %v", tag, got.AbsG.Edges(), want.AbsG.Edges())
	}
}

// TestWorklistMatchesSweepNetgen runs both schedulers over every destination
// class of each generator scenario, with real compiled edge keys and prefs.
func TestWorklistMatchesSweepNetgen(t *testing.T) {
	nets := []struct {
		name string
		net  *config.Network
	}{
		{"fattree", netgen.Fattree(4, netgen.PolicyShortestPath)},
		{"fattree-prefer-bottom", netgen.Fattree(4, netgen.PolicyPreferBottom)},
		{"ring", netgen.Ring(17)},
		{"mesh", netgen.FullMesh(10)},
		{"datacenter", netgen.Datacenter(netgen.DCOptions{Clusters: 2, LeavesPerClus: 4, Cores: 2, TagGroups: 4})},
		{"wan", netgen.WAN(netgen.WANOptions{Backbone: 4, Sites: 3, SwitchesPerSite: 2})},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			bd, err := build.New(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			comp := bd.NewCompiler(true)
			mode := core.ModeEffective
			if bd.HasBGP() {
				mode = core.ModeBGP
			}
			classes := bd.Classes()
			if len(classes) > 24 {
				classes = classes[:24]
			}
			for _, cls := range classes {
				dest, ok := bd.G.Lookup(cls.Origins[0])
				if !ok {
					t.Fatalf("class %v: origin %q unknown", cls.Prefix, cls.Origins[0])
				}
				opt := core.Options{
					Mode:     mode,
					EdgeKeys: bd.EdgeKeyVec(comp, cls),
					Prefs:    bd.PrefsFunc(cls),
				}
				got := core.FindAbstraction(bd.G, dest, opt)
				want := core.FindAbstractionSweep(bd.G, dest, opt)
				requireIdentical(t, fmt.Sprintf("%s %v", tc.name, cls.Prefix), got, want)
			}
		})
	}
}

// TestEdgeKeyVecMatchesCallback pins the batch edge-key derivation to the
// per-edge callback it replaced on the hot path: both must yield identical
// keys for every directed edge (adoption still uses the callback form, so
// divergence would silently desynchronise the two).
func TestEdgeKeyVecMatchesCallback(t *testing.T) {
	nets := []*config.Network{
		netgen.Fattree(4, netgen.PolicyPreferBottom),
		netgen.Datacenter(netgen.DCOptions{Clusters: 2, LeavesPerClus: 4, Cores: 2, TagGroups: 4}),
		netgen.WAN(netgen.WANOptions{Backbone: 4, Sites: 3, SwitchesPerSite: 2}),
	}
	for _, net := range nets {
		bd, err := build.New(net)
		if err != nil {
			t.Fatal(err)
		}
		comp := bd.NewCompiler(true)
		classes := bd.Classes()
		if len(classes) > 8 {
			classes = classes[:8]
		}
		for _, cls := range classes {
			vec := bd.EdgeKeyVec(comp, cls)
			keyFn := bd.EdgeKeyFunc(comp, cls)
			for i, e := range bd.G.Edges() {
				if vec[i] != keyFn(e.U, e.V) {
					t.Fatalf("%s %v: edge %v: vec key %+v != callback key %+v",
						net.Name, cls.Prefix, e, vec[i], keyFn(e.U, e.V))
				}
			}
		}
	}
}

// randomEdgeKey draws a key from a small pool so that refinement sees
// repeated policies, dead edges and ACL denials.
func randomEdgeKey(rng *rand.Rand) core.EdgeKey {
	if rng.Intn(6) == 0 {
		return core.EdgeKey{} // dead
	}
	k := core.EdgeKey{ACLPermit: rng.Intn(8) != 0}
	switch rng.Intn(3) {
	case 0:
		k.BGP = true
		k.BGPRel = bdd.Node(1 + rng.Intn(3))
		k.IBGP = rng.Intn(4) == 0
	case 1:
		k.OSPF = true
		k.OSPFCost = 1 + rng.Intn(2)
		k.OSPFCross = rng.Intn(5) == 0
	default:
		k.Static = rng.Intn(2) == 0
		if !k.Static {
			k.BGP = true
			k.BGPRel = 1
		}
	}
	return k
}

// TestWorklistMatchesSweepRandom fuzzes both schedulers over random graphs
// with random EdgeKey assignments and random prefs, in both modes.
func TestWorklistMatchesSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(36)
		g := topo.New()
		ids := make([]topo.NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(fmt.Sprintf("n%02d", i))
		}
		// Random spanning tree plus extra links keeps most nodes reachable.
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
		prefs := make([]int, n)
		for i := range prefs {
			prefs[i] = 1 + rng.Intn(3)*rng.Intn(2) // mostly 1, some 2 and 3
		}
		dest := ids[rng.Intn(n)]
		for _, mode := range []core.Mode{core.ModeEffective, core.ModeBGP} {
			opt := core.Options{
				Mode:    mode,
				EdgeKey: func(u, v topo.NodeID) core.EdgeKey { return keys[topo.Edge{U: u, V: v}] },
				Prefs:   func(u topo.NodeID) int { return prefs[u] },
			}
			got := core.FindAbstraction(g, dest, opt)
			want := core.FindAbstractionSweep(g, dest, opt)
			requireIdentical(t, fmt.Sprintf("trial %d mode %d (n=%d dest=%d)", trial, mode, n, dest), got, want)
		}
	}
}
