package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func itemsOf(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

func TestRunExecutesEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 5, 100} { // 5 < 8: more workers than items
			var mu sync.Mutex
			var got []int
			maxWorker := -1
			err := Run(context.Background(), itemsOf(n), workers, nil,
				func(w int, item int) error {
					mu.Lock()
					got = append(got, item)
					maxWorker = max(maxWorker, w)
					mu.Unlock()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			if !slices.Equal(got, itemsOf(n)) {
				t.Fatalf("workers=%d n=%d: ran %v", workers, n, got)
			}
			if maxWorker >= min(workers, n) {
				t.Fatalf("workers=%d n=%d: worker index %d", workers, n, maxWorker)
			}
		}
	}
}

// TestLeaderRunsBeforeFollowers is the leaders-first order: each key's
// first item in input order is its leader, every leader is handed out
// before any follower, and both keep input order. One worker runs exactly
// that order; on four, each worker still meets its items in it.
func TestLeaderRunsBeforeFollowers(t *testing.T) {
	const keys, per = 7, 9
	key := func(i int) string {
		if i%keys == 0 {
			return "" // its own leader, every time
		}
		return fmt.Sprintf("g%d", i%keys)
	}
	var want []int
	for i := range keys * per {
		if i < keys || key(i) == "" {
			want = append(want, i)
		}
	}
	for i := keys; i < keys*per; i++ {
		if key(i) != "" {
			want = append(want, i)
		}
	}
	pos := make(map[int]int)
	for p, item := range want {
		pos[item] = p
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		perWorker := make(map[int][]int)
		err := Run(context.Background(), itemsOf(keys*per), workers, key,
			func(w int, item int) error {
				mu.Lock()
				perWorker[w] = append(perWorker[w], item)
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 && !slices.Equal(perWorker[0], want) {
			t.Fatalf("one worker ran %v, want %v", perWorker[0], want)
		}
		n := 0
		for w, got := range perWorker {
			n += len(got)
			if !slices.IsSortedFunc(got, func(a, b int) int { return pos[a] - pos[b] }) {
				t.Fatalf("workers=%d: worker %d ran %v out of leaders-first order", workers, w, got)
			}
		}
		if n != keys*per {
			t.Fatalf("workers=%d: ran %d items", workers, n)
		}
	}
}

// TestLeadersFirstUnblocksBarrier is the ablation as a test: on three
// workers, the three leaders of keys a,a,b,b,c,c wait for each other and
// every follower waits for all of them. Leaders-first hands the three
// leaders to the three workers; an in-order pool hands the second a before
// the last leader, fills every worker with a waiter, and deadlocks.
func TestLeadersFirstUnblocksBarrier(t *testing.T) {
	keys := []string{"a", "a", "b", "b", "c", "c"}
	var arrived sync.WaitGroup
	arrived.Add(3)
	released := make(chan struct{})
	go func() { arrived.Wait(); close(released) }()
	err := Run(context.Background(), itemsOf(len(keys)), 3,
		func(i int) string { return keys[i] },
		func(_ int, i int) error {
			if i%2 == 0 { // the first of its key in input order
				arrived.Done()
			}
			select {
			case <-released:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("item %d (%s): deadlocked behind a follower", i, keys[i])
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorStopsRun(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Run(context.Background(), itemsOf(1000), 4, nil,
		func(_ int, item int) error {
			if ran.Add(1) == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("error did not stop the run (%d items ran)", n)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Run(ctx, itemsOf(10000), 2, nil,
		func(_ int, item int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Fatal("cancellation did not stop the run")
	}
}

// TestCancellationWinsOverTaskError: a task that cancels and then fails
// reports the cancellation, which is what the caller asked for.
func TestCancellationWinsOverTaskError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Run(ctx, itemsOf(50), 2, nil,
		func(_ int, item int) error {
			cancel()
			return errors.New("task failed after cancel")
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLeaderErrorDrainsFollowers: a failing leader must not strand its
// followers — the run terminates and reports the leader's error.
func TestLeaderErrorDrainsFollowers(t *testing.T) {
	boom := errors.New("leader failed")
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := Run(context.Background(), itemsOf(50), 2,
			func(i int) string { return "all-one-key" },
			func(_ int, item int) error { return boom })
		if !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run deadlocked on followers")
	}
}

func TestPanicContainedAsError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Run(context.Background(), itemsOf(50), workers, nil,
			func(_ int, item int) error {
				if item == 7 {
					panic("poisoned item")
				}
				ran.Add(1)
				return nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Item != "7" || pe.Value != "poisoned item" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error = item %q value %v stack %d bytes", workers, pe.Item, pe.Value, len(pe.Stack))
		}
		// A fresh run over the same worker count completes cleanly.
		ran.Store(0)
		if err := Run(context.Background(), itemsOf(50), workers, nil,
			func(_ int, item int) error { ran.Add(1); return nil }); err != nil {
			t.Fatalf("workers=%d: run after contained panic: %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: %d of 50 items ran after contained panic", workers, ran.Load())
		}
	}
}

func TestLeaderPanicReleasesFollowers(t *testing.T) {
	// A panicking leader fails the run; its followers do not hang it.
	key := func(int) string { return "same-key" }
	err := Run(context.Background(), itemsOf(20), 2, key,
		func(_ int, item int) error { panic(fmt.Sprintf("leader %d", item)) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestGlobalStatsCountsItemsAndFollowers(t *testing.T) {
	keys := []string{"a", "b", "a", "", "", "b", "a", "c"} // 3 followers
	before := GlobalStats()
	err := Run(context.Background(), itemsOf(len(keys)), 2,
		func(i int) string { return keys[i] },
		func(int, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), itemsOf(4), 2, nil,
		func(int, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after := GlobalStats()
	if d := after.Items - before.Items; d != int64(len(keys))+4 {
		t.Fatalf("items grew by %d, want %d", d, len(keys)+4)
	}
	if d := after.Followers - before.Followers; d != 3 {
		t.Fatalf("followers grew by %d, want 3", d)
	}
	if after.Steals != 0 {
		t.Fatalf("steals = %d, want 0", after.Steals)
	}
}
