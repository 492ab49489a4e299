package build

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
)

// printedClasses returns, per class of b in class order, the configuration
// AbstractConfig writes back for the abstraction CompressTagged serves on
// comp (cached, or compressed again if nothing is held).
func printedClasses(t *testing.T, b *Builder, comp *policy.Compiler) []string {
	t.Helper()
	out := make([]string, len(b.Classes()))
	for i, cls := range b.Classes() {
		abs, _, err := b.CompressTagged(context.Background(), comp, cls)
		if err != nil {
			t.Fatalf("compress %v: %v", cls.Prefix, err)
		}
		cfg, err := b.AbstractConfig(cls, abs)
		if err != nil {
			t.Fatalf("write back %v: %v", cls.Prefix, err)
		}
		out[i] = config.PrintString(cfg)
	}
	return out
}

// abstractSizes returns every class's abstract node and edge counts, in
// class order.
func abstractSizes(t *testing.T, b *Builder, comp *policy.Compiler) [][2]int {
	t.Helper()
	out := make([][2]int, len(b.Classes()))
	for i, cls := range b.Classes() {
		abs, _, err := b.CompressTagged(context.Background(), comp, cls)
		if err != nil {
			t.Fatalf("compress %v: %v", cls.Prefix, err)
		}
		out[i] = [2]int{abs.AbsG.NumNodes(), abs.AbsG.NumEdges()}
	}
	return out
}

// compressReversed compresses every class of b in reverse order on workers
// goroutines, each with its own compiler.
func compressReversed(t *testing.T, b *Builder, workers int) {
	t.Helper()
	classes := slices.Clone(b.Classes())
	slices.Reverse(classes)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp := b.NewCompiler(true)
			defer comp.Close()
			for i := int(next.Add(1) - 1); i < len(classes); i = int(next.Add(1) - 1) {
				if _, _, err := b.CompressTagged(context.Background(), comp, classes[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// adopted builds a Builder of to that adopts from old and compresses every
// class. The caller closes the compiler.
func adopted(t *testing.T, old *Builder, to *config.Network) (*Builder, *policy.Compiler) {
	t.Helper()
	b, comp := unmanagedBuilder(t, to)
	if _, err := b.AdoptFrom(context.Background(), comp, old, AdoptDelta{}); err != nil {
		t.Fatal(err)
	}
	compressAll(t, b, comp)
	return b, comp
}

// unmanagedBuilder is newBuilder for loops: the caller closes the compiler,
// so a test's compilers do not all live until it ends.
func unmanagedBuilder(t *testing.T, cfg *config.Network) (*Builder, *policy.Compiler) {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b, b.NewCompiler(true)
}

// TestAbstractionHistoryIndependent (ROADMAP item 17(b)): an abstraction is a
// pure function of the configuration, so what the Builder writes back for a
// class may not depend on how it came to hold it. Per class, the printed
// AbstractConfig must be byte-equal across a cold compression on one
// compiler in class order, four concurrent compilers in reverse order,
// evict-and-recompress under a one-byte budget, and a link down-then-up
// AdoptFrom chain. For every sampled link, a link-down successor that
// adopted from the compressed network must report the same abstract sizes
// as a cold Builder of the successor, and the chain back up the same printed
// bytes as the cold compression.
func TestAbstractionHistoryIndependent(t *testing.T) {
	for _, tc := range []struct {
		name       string
		net        *config.Network
		linkStride int
	}{
		{"fattree-8", netgen.Fattree(8, netgen.PolicyShortestPath), 1},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{}), 1},
		{"ring-13", netgen.Ring(13), 1},
		{"datacenter", netgen.Datacenter(netgen.DCOptions{}), 300},
		{"wan-10-20-3", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3}), 23},
		{"wan-30-80-7", netgen.WAN(netgen.WANOptions{Backbone: 30, Sites: 80, SwitchesPerSite: 7}), 755},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold, coldComp := newBuilder(t, tc.net)
			compressAll(t, cold, coldComp)
			want := printedClasses(t, cold, coldComp)
			same := func(history string, got []string) {
				t.Helper()
				for i, cls := range cold.Classes() {
					if got[i] != want[i] {
						t.Fatalf("class %v %s writes back\n%s\nwant (cold, one compiler, class order)\n%s",
							cls.Prefix, history, got[i], want[i])
					}
				}
			}

			par, parComp := newBuilder(t, tc.net)
			compressReversed(t, par, 4)
			same("after 4 compilers in reverse order", printedClasses(t, par, parComp))

			ev, evComp := newBuilder(t, tc.net)
			compressAll(t, ev, evComp)
			ev.SetAbstractionBudget(1)
			if ev.AbstractionCacheStats().Evictions == 0 {
				t.Fatal("a one-byte budget evicted nothing")
			}
			same("evicted and recompressed", printedClasses(t, ev, evComp))

			links := 0
			for i := 0; i < len(tc.net.Links); i += tc.linkStride {
				links++
				l := tc.net.Links[i]
				down := tc.net.Clone()
				down.Links[i].Down = true
				succ, succComp := adopted(t, cold, down)
				fresh, freshComp := unmanagedBuilder(t, down)
				if got, want := abstractSizes(t, succ, succComp), abstractSizes(t, fresh, freshComp); !slices.Equal(got, want) {
					for j, cls := range succ.Classes() {
						if got[j] != want[j] {
							t.Fatalf("%s-%s down: class %v adopted to %v nodes/edges, a cold successor compresses it to %v",
								l.A, l.B, cls.Prefix, got[j], want[j])
						}
					}
				}
				freshComp.Close()
				back, backComp := adopted(t, succ, tc.net)
				succComp.Close()
				same("after "+l.A+"-"+l.B+" went down and up", printedClasses(t, back, backComp))
				backComp.Close()
			}
			t.Logf("%d classes, %d of %d links", len(want), links, len(tc.net.Links))
		})
	}
}
