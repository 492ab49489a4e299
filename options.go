package bonsai

import (
	"runtime"

	"bonsai/internal/build"
)

// options collects the Engine's tunables; Open applies functional Options
// over the zero value.
type options struct {
	workers   int
	memBudget int64
	pool      *build.Pool
	poolFloor int64
	poolLabel string
}

// Option configures an Engine at Open time.
type Option func(*options)

// WithWorkers sets how many goroutines (each owning one BDD compiler) the
// engine uses for compression and verification fan-out. Zero or negative
// means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMemoryBudget bounds the engine's abstraction store to approximately
// the given number of bytes of *retained* results. Past the budget,
// least-recently-used cached abstractions are evicted and recomputed on
// their next query. Pinned transport seeds (one per symmetry family) are
// charged but never evicted, so tiny budgets degrade to the seed working
// set instead of thrashing; in-flight computations are charged when they
// complete, so transient overshoot is bounded by one abstraction per
// shard. Zero (the default) means unbounded retention.
func WithMemoryBudget(bytes int64) Option {
	return func(o *options) { o.memBudget = bytes }
}

// WithSharedPool attaches the engine's abstraction store to a shared
// cross-engine memory pool (see NewSharedPool): the pool's global ceiling
// bounds the *sum* of all attached engines' retained abstraction bytes,
// shedding least-recently-used entries from the engine furthest over its
// floor when the total overflows. floor bytes are guaranteed to this engine
// — cross-engine pressure never evicts below it (the engine's own
// WithMemoryBudget still may). label identifies the engine in pool stats;
// empty defaults to the network name. The attachment follows the engine
// across Apply snapshots and is released by Close.
func WithSharedPool(p *SharedPool, floor int64, label string) Option {
	return func(o *options) {
		o.pool = p
		o.poolFloor = floor
		o.poolLabel = label
	}
}

func (o options) workerCount() int {
	if o.workers > 0 {
		return o.workers
	}
	return runtime.GOMAXPROCS(0)
}
