package bonsai

import (
	"context"
	"iter"
	"sync"
	"time"

	"bonsai/internal/build"
	"bonsai/internal/ec"
	"bonsai/internal/verify"
)

// ClassResult is one per-class row of a streaming compression.
type ClassResult struct {
	// Prefix is the destination class's representative prefix.
	Prefix string `json:"prefix"`
	// AbstractNodes and AbstractLinks size the class's compressed topology.
	AbstractNodes int `json:"abstract_nodes"`
	AbstractLinks int `json:"abstract_links"`
	// Source reports where the abstraction came from: "fresh" (full
	// refinement), "transported" (symmetry transport), "cache" (identity
	// hit), or "adopted" (carried across an incremental update).
	Source string `json:"source"`
	// Duration is this class's wall-clock share, as seen by its worker.
	Duration time.Duration `json:"duration_ns"`
}

// Stream is an in-flight streaming compression: per-class results arrive
// through Results as workers complete them. Beyond the snapshot's class
// slice, which already exists, the pipeline holds an O(workers) result
// buffer and (under WithMemoryBudget) a capped abstraction store. Results
// must be drained (ranged to completion, or broken out of, which cancels the
// remaining work); Err and Report are valid afterwards.
type Stream struct {
	results chan ClassResult
	done    chan struct{} // closed after workers exit and err/elapsed are set
	cancel  context.CancelFunc
	err     error

	b        *build.Builder
	netInfo  NetworkInfo
	bddSetup time.Duration
	start    time.Time
	elapsed  time.Duration

	mu                 sync.Mutex
	count              int
	sumNodes, sumLinks int
}

// CompressStream starts compressing the selected destination classes and
// returns a Stream of per-class results, yielded as they complete. Classes
// come from the snapshot's class index and go to a pool of at most one
// worker per class, which hands out every deduplication fingerprint's first
// class before any repeat: each fingerprint compresses once, and its
// repeats find the result cached or in flight and are served without
// refinement. Batch entry points (Compress) are this pipeline plus a drain.
func (e *Engine) CompressStream(ctx context.Context, sel ClassSelector) (*Stream, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	st := e.state.Load()

	classes := st.b.Classes()
	if sel.Prefix != "" {
		cls, err := st.b.ClassFor(sel.Prefix)
		if err != nil {
			return nil, err
		}
		classes = []ec.Class{cls}
	} else if max := sel.MaxClasses; max > 0 && len(classes) > max {
		classes = classes[:max]
	}
	shards := min(e.opts.workerCount(), len(classes))

	bddStart := time.Now()
	comps := make([]*pooledCompiler, shards)
	for i := range comps {
		comps[i] = e.acquire(st)
	}

	ctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		// A small buffer decouples workers from the consumer's per-row
		// latency without accumulating the report: memory stays O(shards).
		results:  make(chan ClassResult, 2*shards),
		done:     make(chan struct{}),
		cancel:   cancel,
		b:        st.b,
		netInfo:  e.networkInfo(st),
		bddSetup: time.Since(bddStart),
		start:    time.Now(),
	}

	key := verify.FingerprintKey(st.b)
	go func() {
		defer cancel()
		err := verify.ForEachClassKeyed(ctx, classes, shards, key, func(w int, cls ec.Class) error {
			t0 := time.Now()
			abs, prov, err := st.b.CompressTagged(ctx, comps[w].comp, cls)
			if err != nil {
				return err
			}
			r := ClassResult{
				Prefix:        cls.Prefix.String(),
				AbstractNodes: abs.NumAbstractNodes(),
				AbstractLinks: abs.NumAbstractEdges(),
				Source:        prov.String(),
				Duration:      time.Since(t0),
			}
			s.mu.Lock()
			s.count++
			s.sumNodes += r.AbstractNodes
			s.sumLinks += r.AbstractLinks
			s.mu.Unlock()
			select {
			case s.results <- r:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		for _, pc := range comps {
			e.release(pc)
		}
		s.elapsed = time.Since(s.start)
		s.err = err
		close(s.done)
		close(s.results)
	}()
	return s, nil
}

// Results yields per-class results in completion order. Ranging to
// completion drains the pipeline; breaking out cancels the remaining work
// and discards undelivered results. Results is single-use.
func (s *Stream) Results() iter.Seq[ClassResult] {
	return func(yield func(ClassResult) bool) {
		for r := range s.results {
			if !yield(r) {
				s.cancel()
				for range s.results { // unblock workers; discard the tail
				}
				return
			}
		}
	}
}

// Err reports how the stream ended: nil after a complete run, the
// context's error after cancellation (including a Results break), or the
// first per-class failure. It blocks until the pipeline has shut down, so
// call it after draining Results.
func (s *Stream) Err() error {
	<-s.done
	return s.err
}

// Report aggregates the streamed results into the batch CompressReport.
// Like Err it blocks until the pipeline has shut down; after an error or an
// early break it covers the classes that completed.
func (s *Stream) Report() *CompressReport {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &CompressReport{
		Network:           s.netInfo,
		ClassesCompressed: s.count,
		SumAbstractNodes:  s.sumNodes,
		SumAbstractLinks:  s.sumLinks,
		Cache:             cacheStats(s.b),
		BDDSetup:          s.bddSetup,
		Duration:          s.elapsed,
	}
	if s.sumNodes > 0 {
		rep.NodeRatio = float64(s.netInfo.Routers*s.count) / float64(s.sumNodes)
	}
	if s.sumLinks > 0 {
		rep.LinkRatio = float64(s.netInfo.Links*s.count) / float64(s.sumLinks)
	}
	return rep
}
