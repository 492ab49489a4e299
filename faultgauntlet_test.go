package bonsai

// The fault-injection gauntlet: panics, cancellations and evictions are
// injected at every seam (scheduler task, adoption check, store install,
// snapshot swap) and the engine must always land in a consistent snapshot —
// queries during and after the fault return results field-identical to a
// cold Open on whatever configuration the engine reports. This file is an
// internal test so it can reach the builder under the snapshot (to force
// evictions mid-apply) without widening the public API.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bonsai/internal/faultinject"
	"bonsai/internal/netgen"
	"bonsai/internal/sched"
)

func gauntletOpen(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	t.Cleanup(faultinject.Reset)
	return eng
}

// gauntletFingerprint renders every (source, class) answer, cross-checked
// against concrete simulation.
func gauntletFingerprint(t *testing.T, eng *Engine) string {
	t.Helper()
	ctx := context.Background()
	var out strings.Builder
	for _, dest := range eng.Classes() {
		for _, src := range eng.Network().RouterNames() {
			res, err := eng.Reach(ctx, src, dest)
			if err != nil {
				t.Fatalf("reach %s -> %s: %v", src, dest, err)
			}
			con, err := eng.ReachConcrete(ctx, src, dest)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reachable != con.Reachable {
				t.Fatalf("compressed diverges from concrete for %s -> %s", src, dest)
			}
			fmt.Fprintf(&out, "%s>%s=%v;", src, dest, res.Reachable)
		}
	}
	return out.String()
}

// checkConsistentSnapshot is the gauntlet's invariant: whatever just
// happened, the engine's queries must match a cold Open on the
// configuration the engine currently reports.
func checkConsistentSnapshot(t *testing.T, eng *Engine) {
	t.Helper()
	fresh, err := Open(eng.Network())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := gauntletFingerprint(t, eng), gauntletFingerprint(t, fresh); got != want {
		t.Fatal("post-fault queries diverge from cold open on the engine's config")
	}
	ctx := context.Background()
	warm, err := eng.Verify(ctx, VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.Verify(ctx, VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pairs != cold.Pairs || warm.ReachablePairs != cold.ReachablePairs || warm.Classes != cold.Classes {
		t.Fatalf("verify reports diverge: warm %v cold %v", warm, cold)
	}
}

var gauntletDelta = Delta{LinkDown: []LinkRef{{A: "agg-0-0", B: "core-0"}}}

func TestGauntletAdoptPanicInvalidatesNotCrashes(t *testing.T) {
	eng := gauntletOpen(t)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	disarm := faultinject.Arm(faultinject.AdoptClass, func(string) { panic("poisoned adoption") })
	rep, err := eng.Apply(ctx, gauntletDelta)
	disarm()
	if err != nil {
		t.Fatalf("adoption panics must degrade to invalidation, got error: %v", err)
	}
	if rep.Adopted != 0 || rep.Invalidated == 0 {
		t.Fatalf("report = %+v, want every cached class invalidated", rep)
	}
	checkConsistentSnapshot(t, eng)
}

func TestGauntletCancelMidAdoptionKeepsOldSnapshot(t *testing.T) {
	eng := gauntletOpen(t)
	bg := context.Background()
	if _, err := eng.Compress(bg, ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	before := gauntletFingerprint(t, eng)
	beforeCfg := eng.Network()

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	fired := 0
	disarm := faultinject.Arm(faultinject.AdoptClass, func(string) {
		fired++
		if fired == 2 {
			cancel() // mid-adoption: some classes decided, some not
		}
	})
	// Queries race the failing Apply; under -race this doubles as the
	// mid-adoption consistency test of the robustness contract.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	dest := eng.Classes()[0]
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Reach(bg, "edge-0-0", dest); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	_, err := eng.Apply(ctx, gauntletDelta)
	close(stop)
	wg.Wait()
	disarm()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eng.Network() != beforeCfg {
		t.Fatal("failed apply must not swap the snapshot")
	}
	if got := gauntletFingerprint(t, eng); got != before {
		t.Fatal("old snapshot's answers changed after a cancelled apply")
	}
	checkConsistentSnapshot(t, eng)
}

func TestGauntletEvictionMidApply(t *testing.T) {
	eng := gauntletOpen(t)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	// After the first adopted entry installs, collapse the *old* builder's
	// store budget: the entries the adoption sweep is still reading are
	// evicted under it mid-apply. Evicted classes must read as cold (they
	// land in NewClasses), never as corruption or an error.
	fired := 0
	disarm := faultinject.Arm(faultinject.StoreInstall, func(string) {
		fired++
		if fired == 1 {
			eng.state.Load().b.SetAbstractionBudget(1)
		}
	})
	rep, err := eng.Apply(ctx, gauntletDelta)
	disarm()
	if err != nil {
		t.Fatalf("evictions mid-apply must not fail the apply: %v", err)
	}
	if fired == 0 {
		t.Fatal("store.install seam never fired; the scenario never engaged")
	}
	if rep.NewClasses == 0 {
		t.Fatalf("mid-sweep evictions should leave some classes cold: %+v", rep)
	}
	checkConsistentSnapshot(t, eng)
}

func TestGauntletSwapPanicLeavesOldSnapshot(t *testing.T) {
	eng := gauntletOpen(t)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	beforeCfg := eng.Network()
	disarm := faultinject.Arm(faultinject.ApplySwap, func(string) { panic("swap poisoned") })
	_, err := eng.Apply(ctx, gauntletDelta)
	disarm()
	if err == nil || !strings.Contains(err.Error(), "apply panicked") {
		t.Fatalf("err = %v, want contained apply panic", err)
	}
	if eng.Network() != beforeCfg {
		t.Fatal("panicked apply must not swap the snapshot")
	}
	checkConsistentSnapshot(t, eng)
	// The engine must remain fully usable: the same delta applies cleanly
	// once the fault is gone.
	if _, err := eng.Apply(ctx, gauntletDelta); err != nil {
		t.Fatalf("apply after contained panic: %v", err)
	}
	checkConsistentSnapshot(t, eng)
}

func TestGauntletSchedPanicFailsQueryNotProcess(t *testing.T) {
	eng := gauntletOpen(t, WithWorkers(4))
	ctx := context.Background()
	// Poison exactly one class's compression task; a parallel Verify must
	// fail with a PanicError naming it — not kill the process or wedge the
	// worker pool.
	victim := eng.Classes()[0]
	disarm := faultinject.Arm(faultinject.SchedTask, func(key string) {
		if strings.Contains(key, victim) {
			panic("poisoned class " + victim)
		}
	})
	_, err := eng.Verify(ctx, VerifyRequest{})
	disarm()
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if !strings.Contains(pe.Item, victim) || len(pe.Stack) == 0 {
		t.Fatalf("panic error should carry the class key and stack: item=%q stack=%d bytes", pe.Item, len(pe.Stack))
	}
	// Other classes stay healthy: the same verify succeeds with the
	// poison removed, and single-class queries never touched it.
	if _, err := eng.Verify(ctx, VerifyRequest{}); err != nil {
		t.Fatalf("verify after poisoned run: %v", err)
	}
	checkConsistentSnapshot(t, eng)
}

func TestGauntletStreamSurvivesAdoptPanics(t *testing.T) {
	eng := gauntletOpen(t)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	// Every third adoption check panics while a stream of real work flows
	// through; the stream must complete and land consistent.
	fired := 0
	disarm := faultinject.Arm(faultinject.AdoptClass, func(string) {
		fired++
		if fired%3 == 0 {
			panic("intermittent adoption poison")
		}
	})
	ch := make(chan Delta, 8)
	ch <- Delta{LinkDown: []LinkRef{{A: "agg-0-0", B: "core-0"}}}
	ch <- Delta{LinkDown: []LinkRef{{A: "agg-1-0", B: "core-1"}}}
	ch <- Delta{LinkUp: []LinkRef{{A: "agg-0-0", B: "core-0"}}}
	ch <- Delta{AddOriginated: []OriginEdit{{Router: "edge-0-0", Prefix: "10.123.0.0/24"}}}
	close(ch)
	rep, err := eng.ApplyStream(ctx, ch, WithMaxPending(2))
	disarm()
	if err != nil {
		t.Fatalf("stream under injected panics: %v", err)
	}
	if rep.Batches == 0 {
		t.Fatalf("report = %+v", rep)
	}
	checkConsistentSnapshot(t, eng)
}
