package verify

import (
	"context"
	"testing"
	"time"

	"bonsai/internal/build"
	"bonsai/internal/netgen"
)

// TestCancelledContextReturnsImmediately covers the pre-cancelled case for
// every entry point.
func TestCancelledContextReturnsImmediately(t *testing.T) {
	b, err := build.New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AllPairsConcrete(ctx, b, Options{Workers: 2}); err != context.Canceled {
		t.Fatalf("AllPairsConcrete: %v", err)
	}
	if _, err := AllPairsBonsai(ctx, b, Options{Workers: 2}); err != context.Canceled {
		t.Fatalf("AllPairsBonsai: %v", err)
	}
	if _, err := reach(ctx, b, "edge-0-0", "10.0.0.0/24", true); err != context.Canceled {
		t.Fatalf("reach: %v", err)
	}
}

// TestCancellationStopsWorkersPromptly cancels a verification that would
// otherwise run for a long time (per-pair certification over a large ring
// re-solves the control plane for every source) and requires the worker
// pool to drain within a generous bound.
func TestCancellationStopsWorkersPromptly(t *testing.T) {
	b, err := build.New(netgen.Ring(150))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = AllPairsConcrete(ctx, b, Options{Workers: 4, PerPairCertification: true})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full run takes far longer than this; a prompt stop means the
	// dispatch loop and workers observed the cancellation.
	if elapsed > 5*time.Second {
		t.Fatalf("verification kept running %v after cancellation", elapsed)
	}
}

// TestCancellationDuringCompression cancels AllPairsBonsai mid-run so the
// cancellation lands inside Builder.Compress, including its single-flight
// waiters.
func TestCancellationDuringCompression(t *testing.T) {
	b, err := build.New(netgen.Fattree(8, netgen.PolicyPreferBottom))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = AllPairsBonsai(ctx, b, Options{Workers: 4, PerPairCertification: true})
	if err == nil {
		t.Skip("run finished before the cancellation landed")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("verification kept running %v after cancellation", elapsed)
	}
	// The builder must stay usable: a failed single-flight slot is dropped,
	// so a fresh context compresses cleanly.
	res, err := AllPairsBonsai(context.Background(), b, Options{Workers: 2, MaxClasses: 4})
	if err != nil {
		t.Fatalf("builder unusable after cancellation: %v", err)
	}
	if res.Pairs == 0 {
		t.Fatal("no pairs verified after cancellation recovery")
	}
}
