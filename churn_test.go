package bonsai_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"bonsai"
	"bonsai/internal/netgen"
)

// TestCompilerChurnBoundedMemory is the regression test for the pooled-
// compiler lifecycle: concurrent Verify calls check out more compilers than
// the idle pool holds, which forces overflow compilers to be created, used
// once, and retired on release. Retirement must free each compiler's BDD
// tables and remove its contribution from the engine aggregates — before
// retire() existed, every pool-overflow release leaked the compiler's unique
// table, so live nodes and heap grew linearly with query count. This test
// pins both down.
func TestCompilerChurnBoundedMemory(t *testing.T) {
	eng, err := bonsai.Open(netgen.Fattree(4, netgen.PolicyShortestPath),
		bonsai.WithWorkers(2)) // idle pool caps at workers+2 = 4
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}

	// One churn round runs 8 Verify calls at once, each checking out 2
	// compilers before it waits on its own workers: up to 16 checked out,
	// 4 returned to the pool and the rest retired when it refuses them.
	churn := func() {
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = eng.Verify(ctx, bonsai.VerifyRequest{})
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}

	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm up past first-touch allocations (pool fill, caches, lazy init)
	// before taking the baseline.
	for i := 0; i < 3; i++ {
		churn()
	}
	baseHeap := heapAfterGC()
	base := eng.BDDStats()
	if base.Managers <= 0 || base.NodesLive <= 0 {
		t.Fatalf("implausible baseline BDD stats: %+v", base)
	}

	const rounds = 40
	for i := 0; i < rounds; i++ {
		churn()
	}

	after := eng.BDDStats()
	// Every overflow compiler must have been retired, nodes and all; only
	// the capped idle pool may remain live.
	if after.Managers > base.Managers {
		t.Fatalf("live managers grew %d -> %d across churn", base.Managers, after.Managers)
	}
	if after.NodesLive > 2*base.NodesLive {
		t.Fatalf("live BDD nodes grew %d -> %d across %d churn rounds; retired compilers are leaking",
			base.NodesLive, after.NodesLive, rounds)
	}
	// Heap must not scale with churn count. Identical queries add no new
	// abstractions, so allow only constant slack (GC noise, pool caches).
	if got := heapAfterGC(); got > baseHeap+baseHeap/2+8<<20 {
		t.Fatalf("heap grew %d -> %d bytes across %d churn rounds", baseHeap, got, rounds)
	}
}
