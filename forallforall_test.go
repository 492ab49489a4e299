package bonsai_test

import (
	"context"
	"os"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/oracle"
	"bonsai/internal/topo"
)

// TestForallForallDepartureKeepsSolutionSets records ROADMAP item 10(a):
// where core's relaxed ∀∀ refinement departs from Figure 4's strict ∀∀
// condition. On every class of prefer-bottom Fattree(4), (6) and (8) and of
// the Figure-2 gadget, the concrete and abstract solution sets must be
// equivalent through F (oracle.CheckAcrossSolutions, both directions), and
// of the four conditions Checker.CheckAll checks only ∀∀ may refuse the
// abstraction: dest-equivalence, ∀∃ and transfer-equivalence must hold.
// -v logs, per network, how many classes ∀∀ refuses.
func TestForallForallDepartureKeepsSolutionSets(t *testing.T) {
	figure2 := func() *config.Network {
		src, err := os.ReadFile("testdata/regress/figure2.cfg")
		if err != nil {
			t.Fatal(err)
		}
		n, err := config.ParseString(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, tc := range []struct {
		name string
		net  func() *config.Network
	}{
		{"fattree4-prefer-bottom", func() *config.Network { return netgen.Fattree(4, netgen.PolicyPreferBottom) }},
		{"fattree6-prefer-bottom", func() *config.Network { return netgen.Fattree(6, netgen.PolicyPreferBottom) }},
		{"fattree8-prefer-bottom", func() *config.Network { return netgen.Fattree(8, netgen.PolicyPreferBottom) }},
		{"figure2", figure2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := build.New(tc.net())
			if err != nil {
				t.Fatal(err)
			}
			comp := b.NewCompiler(true)
			var refused int
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
				if err := oracle.CheckAcrossSolutions(conc, abst, abs); err != nil {
					t.Errorf("class %v: solution sets differ through F: %v", cls.Prefix, err)
				}
				prefs, multiPref := b.PrefsFunc(cls), make(map[int]bool)
				for u, g := range abs.F {
					multiPref[g] = multiPref[g] || prefs(topo.NodeID(u)) > 1
				}
				c := &oracle.Checker{Abs: abs, G: b.G, EdgeKey: b.EdgeKeyFunc(comp, cls)}
				for cond, err := range map[string]error{
					"dest-equivalence":     c.CheckDestEquivalence(),
					"∀∃":                   c.CheckForallExists(),
					"transfer-equivalence": c.CheckTransferEquivalence(),
				} {
					if err != nil {
						t.Errorf("class %v: %s refused: %v", cls.Prefix, cond, err)
					}
				}
				forall := c.CheckForallForall(multiPref)
				if forall != nil {
					refused++
					t.Logf("class %v: ∀∀ refused: %v", cls.Prefix, forall)
				}
				if all := c.CheckAll(core.ModeBGP, multiPref); (all != nil) != (forall != nil) {
					t.Errorf("class %v: CheckAll says %v, ∀∀ alone %v", cls.Prefix, all, forall)
				}
			}
			t.Logf("%d classes, %d refused by ∀∀ alone, every solution set equivalent through F", len(b.Classes()), refused)
		})
	}
}
