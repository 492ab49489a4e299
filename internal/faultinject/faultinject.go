// Package faultinject provides process-wide fault-injection seams for
// robustness tests. Production code calls Fire at interesting points; tests
// Arm hooks that panic, cancel contexts, or poke caches at those points.
// The layer is always compiled in (no build tags, so the tested binary is
// the shipped binary) but costs a single atomic load per seam while nothing
// is armed.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Point names one injection seam.
type Point string

const (
	// SchedTask fires in a fan-out worker just before it runs a task;
	// the key is the task's item rendering.
	SchedTask Point = "sched.task"
	// AdoptClass fires before each class's adoption check during an
	// incremental update; the key is the class prefix.
	AdoptClass Point = "adopt.class"
	// StoreInstall fires before an abstraction is installed into the
	// bounded store; the key is the class prefix.
	StoreInstall Point = "store.install"
	// ApplySwap fires after a batch's successor snapshot is fully built,
	// just before the engine publishes it.
	ApplySwap Point = "apply.swap"
	// JournalAppend fires in journal.Append before the record is written;
	// the key is the record's sequence number. A crash here loses the
	// record entirely — it was never acknowledged.
	JournalAppend Point = "journal.append"
	// JournalFsync fires after a record is written, before fsync; the key
	// is the newest appended sequence. A crash here leaves the record in
	// the page cache: survives kill -9, exposed to power loss.
	JournalFsync Point = "journal.fsync"
	// CheckpointRename fires after the checkpoint temp file is written and
	// fsynced, just before the atomic rename; the key is the checkpoint
	// sequence. A crash here leaves the previous checkpoint in force.
	CheckpointRename Point = "checkpoint.rename"
)

type hook struct {
	id int64
	fn func(key string)
}

var (
	armed  atomic.Int32
	nextID atomic.Int64
	mu     sync.RWMutex
	hooks  map[Point][]hook
)

// Active reports whether any hook is armed; seams may use it to skip
// building keys.
func Active() bool { return armed.Load() > 0 }

// Fire invokes every hook armed at p. Hooks run on the calling goroutine
// and may panic or block — that is the point. When nothing is armed, Fire
// is one atomic load.
func Fire(p Point, key string) {
	if armed.Load() == 0 {
		return
	}
	mu.RLock()
	fns := make([]func(string), 0, len(hooks[p]))
	for _, h := range hooks[p] {
		fns = append(fns, h.fn)
	}
	mu.RUnlock()
	for _, fn := range fns {
		fn(key)
	}
}

// Arm registers fn at p and returns an idempotent disarm function. Seams
// are process-global, so tests must disarm (t.Cleanup) before finishing.
func Arm(p Point, fn func(key string)) (disarm func()) {
	id := nextID.Add(1)
	mu.Lock()
	if hooks == nil {
		hooks = make(map[Point][]hook)
	}
	hooks[p] = append(hooks[p], hook{id: id, fn: fn})
	mu.Unlock()
	armed.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			hs := hooks[p]
			for i, h := range hs {
				if h.id == id {
					hooks[p] = append(hs[:i:i], hs[i+1:]...)
					break
				}
			}
			mu.Unlock()
			armed.Add(-1)
		})
	}
}

// Reset removes every armed hook. Tests call it (usually via t.Cleanup) so
// a failing scenario cannot leak hooks into the next.
func Reset() {
	mu.Lock()
	hooks = nil
	mu.Unlock()
	armed.Store(0)
}

// OnNth wraps fn so it runs only on the n-th Fire (1-based) of the hook it
// is armed as; earlier and later hits are ignored. Safe for concurrent
// Fires.
func OnNth(n int64, fn func(key string)) func(key string) {
	var hits atomic.Int64
	return func(key string) {
		if hits.Add(1) == n {
			fn(key)
		}
	}
}
