// Package sched is the parallel fan-out of the compression pipeline: a fixed
// worker pool over a slice of items, handed out leaders-first. Items sharing
// a non-empty key reduce to one computation (in the pipeline, classes with
// equal deduplication fingerprints share one abstraction), and the first
// item of every key (its leader) is handed out before any repeat (a
// follower), both in input order. A follower is thus handed out only after
// every leader, and finds its leader's result cached or in flight instead of
// holding a second worker in the store's single flight while a leader of
// another key still waits for one.
//
// That order is the pool's only measured gain (docs/audit.md §12): the same
// pool in plain input order makes a datacenter verdict on two CPUs about a
// third slower.
package sched

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"bonsai/internal/faultinject"
)

// PanicError is the error a Run returns when a task panicked: the worker
// recovers, captures the item and stack, and fails the run like any task
// error — the process survives, and later runs are unaffected.
type PanicError struct {
	// Item renders the panicking work item (for compression tasks, the
	// class); Value is the recovered panic value.
	Item  string
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %s panicked: %v\n%s", e.Item, e.Value, e.Stack)
}

// Protect runs do(worker, item), converting a panic into a *PanicError and
// firing the sched.task fault-injection seam. Exported so serial paths that
// bypass the pool (e.g. single-worker verification) get the same
// containment contract.
func Protect[T any](worker int, item T, do func(worker int, item T) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Item: fmt.Sprint(item), Value: r, Stack: debug.Stack()}
		}
	}()
	if faultinject.Active() {
		faultinject.Fire(faultinject.SchedTask, fmt.Sprint(item))
	}
	return do(worker, item)
}

// Stats is the process-wide account of every Run, for long-lived embedders
// (bonsaid's /metrics) and the per-layer benchmark.
type Stats struct {
	// Items counts items handed to Run; Followers counts those handed out
	// after their key's leader.
	Items     int64
	Followers int64
	// Steals is always 0: the pool has one shared queue and nothing to
	// steal from. It stays because bench/layers.go reports it.
	Steals int64
}

var global struct{ items, followers atomic.Int64 }

// GlobalStats returns the totals accumulated across all Runs.
func GlobalStats() Stats {
	return Stats{Items: global.items.Load(), Followers: global.followers.Load()}
}

// Run executes do(worker, item) for every item on min(workers, len(items))
// goroutines, worker identifying the executing goroutine (callers attach
// per-worker state — policy compilers — by index). key, when non-nil, orders
// the items leaders-first as the package comment describes; an empty key
// makes an item its own leader. The first error from do stops the run (items
// not yet handed out are skipped), as does ctx cancellation, which wins over
// any concurrent task error.
func Run[T any](ctx context.Context, items []T, workers int, key func(T) string, do func(worker int, item T) error) error {
	order := items
	if key != nil {
		order = make([]T, 0, len(items))
		var followers []T
		seen := make(map[string]bool)
		for _, it := range items {
			k := key(it)
			if k != "" && seen[k] {
				followers = append(followers, it)
				continue
			}
			seen[k] = true
			order = append(order, it)
		}
		order = append(order, followers...)
		global.followers.Add(int64(len(followers)))
	}
	global.items.Add(int64(len(items)))

	var (
		next    atomic.Int64
		stopped atomic.Bool
		errOnce sync.Once
		runErr  error
		wg      sync.WaitGroup
	)
	for w := range min(max(workers, 1), len(order)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				if err := Protect(w, order[i], do); err != nil {
					errOnce.Do(func() { runErr = err })
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return runErr
}
