package bonsai_test

import (
	"context"
	"os"
	"testing"

	"bonsai"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/oracle"
	"bonsai/internal/topo"
)

// regressNet parses testdata/regress/<name>.cfg.
func regressNet(t *testing.T, name string) *config.Network {
	t.Helper()
	src, err := os.ReadFile("testdata/regress/" + name + ".cfg")
	if err != nil {
		t.Fatal(err)
	}
	n, err := config.ParseString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestForallForallDepartureKeepsSolutionSets holds the oracle's two checks
// to one verdict (ROADMAP item 10, docs/audit.md §25): on every class of
// ten networks with multi-preference routers, Checker.CheckAll, whose ∀∀
// is Figure 4's every-to-every adjacency at either end of a group edge, must
// accept the abstraction, and the concrete and abstract solution sets must
// be equivalent through F (oracle.CheckAcrossSolutions, both directions).
// Compression once applied ∀∀ to a multi-preference group's out-edges
// alone; the checker refused all 106 classes of the five generated networks
// for that departure, and testdata/regress/disagree-tails.cfg is where it
// changed an answer. disagree-feeds.cfg is its twin at the source end. Each
// network must hold a class with a multi-preference router, or ∀∀ binds
// nothing there.
func TestForallForallDepartureKeepsSolutionSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func() *config.Network
	}{
		{"fattree4-prefer-bottom", func() *config.Network { return netgen.Fattree(4, netgen.PolicyPreferBottom) }},
		{"fattree6-prefer-bottom", func() *config.Network { return netgen.Fattree(6, netgen.PolicyPreferBottom) }},
		{"fattree8-prefer-bottom", func() *config.Network { return netgen.Fattree(8, netgen.PolicyPreferBottom) }},
		{"spineleaf-prefer-external", func() *config.Network {
			return netgen.SpineLeaf(netgen.SpineLeafOptions{PreferExternal: true})
		}},
		{"spineleaf4-prefer-external", func() *config.Network {
			return netgen.SpineLeaf(netgen.SpineLeafOptions{Leaves: 4, PreferExternal: true})
		}},
		{"figure2", func() *config.Network { return regressNet(t, "figure2") }},
		{"disagree", func() *config.Network { return regressNet(t, "disagree") }},
		{"badgadget", func() *config.Network { return regressNet(t, "badgadget") }},
		{"disagree-tails", func() *config.Network { return regressNet(t, "disagree-tails") }},
		{"disagree-feeds", func() *config.Network { return regressNet(t, "disagree-feeds") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := build.New(tc.net())
			if err != nil {
				t.Fatal(err)
			}
			comp := b.NewCompiler(true)
			defer comp.Close()
			bound := 0 // classes with a multi-preference router
			for _, cls := range b.Classes() {
				abs, err := b.Compress(context.Background(), comp, cls)
				if err != nil {
					t.Fatal(err)
				}
				conc, err := b.Instance(cls)
				if err != nil {
					t.Fatal(err)
				}
				abst, err := b.AbstractInstance(cls, abs)
				if err != nil {
					t.Fatal(err)
				}
				prefs := b.PrefsFunc(cls)
				c := &oracle.Checker{Abs: abs, G: b.G, EdgeKey: b.EdgeKeyFunc(comp, cls)}
				if err := c.CheckAll(core.ModeBGP, prefs); err != nil {
					t.Errorf("class %v: CheckAll refuses: %v", cls.Prefix, err)
				}
				if err := oracle.CheckAcrossSolutions(conc, abst, abs); err != nil {
					t.Errorf("class %v: solution sets differ through F: %v", cls.Prefix, err)
				}
				for u := range b.G.NumNodes() {
					if prefs(topo.NodeID(u)) > 1 {
						bound++
						break
					}
				}
			}
			if bound == 0 {
				t.Fatal("no class has a multi-preference router: ∀∀ binds nothing")
			}
			t.Logf("%d classes checked, %d with a multi-preference router", len(b.Classes()), bound)
		})
	}
}

// TestForallForallBindsTheTargetEnd: on testdata/regress/disagree-tails.cfg
// the partition that ∀∀ on the multi-preference group's out-edges alone
// accepts — {a, b} split into two copies, {g1, g2} and {d} — is unsound,
// and both oracles say so: CheckAll because g1 has no edge to b, and
// CheckAcrossSolutions because g2 routes through b and a in the solution
// where b routes through a, a path no copy of the g group takes. The
// engine's compressed and concrete answers agree for every router.
func TestForallForallBindsTheTargetEnd(t *testing.T) {
	net := regressNet(t, "disagree-tails")
	b, err := build.New(net)
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	defer comp.Close()
	cls := b.Classes()[0]
	group := map[string]int{"a": 0, "b": 0, "d": 1, "g1": 2, "g2": 2}
	f := make([]int, b.G.NumNodes())
	for name, g := range group {
		f[b.G.MustLookup(name)] = g
	}
	keys := b.EdgeKeyVec(comp, cls)
	live := topo.NewEdgeSet(len(keys))
	for i, k := range keys {
		if !k.Dead() {
			live.Set(i)
		}
	}
	prefs := b.PrefsFunc(cls)
	abs := core.Assemble(b.G, b.G.MustLookup("d"), f, core.AssembleOptions{Mode: core.ModeBGP, Prefs: prefs, LiveEdges: live})
	if n := len(abs.Copies[0]); n != 2 {
		t.Fatalf("the {a, b} group has %d copies, want 2", n)
	}
	c := &oracle.Checker{Abs: abs, G: b.G, EdgeKey: b.EdgeKeyFunc(comp, cls)}
	if err := c.CheckForallExists(); err != nil {
		t.Fatalf("test premise broken: %v", err)
	}
	if c.CheckAll(core.ModeBGP, prefs) == nil {
		t.Error("CheckAll accepts the partition ∀∀ at the source end alone accepts")
	}
	conc, err := b.Instance(cls)
	if err != nil {
		t.Fatal(err)
	}
	abst, err := b.AbstractInstance(cls, abs)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.CheckAcrossSolutions(conc, abst, abs) == nil {
		t.Error("CheckAcrossSolutions accepts the partition ∀∀ at the source end alone accepts")
	}

	eng, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for name := range group {
		if name == "d" {
			continue
		}
		got, err := eng.Reach(ctx, name, "10.0.0.0/24")
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.ReachConcrete(ctx, name, "10.0.0.0/24")
		if err != nil {
			t.Fatal(err)
		}
		if got.ReachAnswer != want.ReachAnswer {
			t.Errorf("Reach(%s) = %+v compressed, %+v concrete", name, got.ReachAnswer, want.ReachAnswer)
		}
	}
}
