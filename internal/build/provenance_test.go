package build

import (
	"context"
	"strings"
	"testing"

	"bonsai/internal/abstraction"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
)

// TestAdoptedAbstractionsSatisfyConditions is the adopted cell of the
// provenance matrix (ROADMAP item 1): every abstraction carried across one
// core-link-down by AdoptFrom must satisfy the paper's Figure-4 conditions on
// the *successor's* graph and edge keys, not on the network it was computed
// over.
func TestAdoptedAbstractionsSatisfyConditions(t *testing.T) {
	ctx := context.Background()
	cfg := netgen.Fattree(6, netgen.PolicyShortestPath)
	old, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldComp := old.NewCompiler(true)
	defer oldComp.Close()
	for _, cls := range old.Classes() {
		if _, err := old.Compress(ctx, oldComp, cls); err != nil {
			t.Fatal(err)
		}
	}

	next := cfg.Clone()
	down := -1
	for i, l := range next.Links {
		if strings.HasPrefix(l.A, "core-") || strings.HasPrefix(l.B, "core-") {
			down = i
			break
		}
	}
	if down < 0 {
		t.Fatal("the fat-tree has no core link")
	}
	next.Links[down].Down = true
	b, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	defer comp.Close()
	if _, err := b.AdoptFrom(ctx, comp, old, AdoptDelta{}); err != nil {
		t.Fatal(err)
	}

	mode := core.ModeEffective
	if b.HasBGP() {
		mode = core.ModeBGP
	}
	adopted := 0
	for _, cls := range b.Classes() {
		e, ok := b.cachedEntry(cls)
		if !ok || e.src != ProvAdopted {
			continue
		}
		adopted++
		prefs := b.PrefsFunc(cls)
		multiPref := make(map[int]bool)
		for gi, ms := range e.abs.Groups {
			for _, u := range ms {
				if prefs(u) > 1 {
					multiPref[gi] = true
				}
			}
		}
		c := &abstraction.Checker{Abs: e.abs, G: b.G, EdgeKey: b.EdgeKeyFunc(comp, cls)}
		if err := c.CheckAll(mode, multiPref); err != nil {
			t.Errorf("adopted class %v: %v", cls.Prefix, err)
		}
	}
	if adopted == 0 {
		t.Fatal("no class came back adopted: the cell this test fills is empty")
	}
}
