package bonsai

import (
	"context"
	"time"
)

// streamOpts collects ApplyStream's tunables.
type streamOpts struct {
	maxPending   int
	maxStaleness time.Duration
	observer     func(*ApplyReport)
}

// StreamApplyOption configures one ApplyStream call.
type StreamApplyOption func(*streamOpts)

// WithMaxPending bounds staleness by count: once n deltas are batched, the
// batch is flushed even if more input is immediately available. Zero (the
// default) means no count bound — the batch grows as long as the channel
// keeps producing without a gap.
func WithMaxPending(n int) StreamApplyOption {
	return func(o *streamOpts) { o.maxPending = n }
}

// WithMaxStaleness bounds staleness by wall clock: after the first delta of
// a batch arrives, the stream keeps gathering for at most d before
// flushing, trading staleness for coalescing opportunity. Zero (the
// default) flushes as soon as the channel is momentarily empty.
func WithMaxStaleness(d time.Duration) StreamApplyOption {
	return func(o *streamOpts) { o.maxStaleness = d }
}

// WithBatchObserver registers fn to receive every batch's ApplyReport as it
// lands (including empty batches, reported with zero classes touched). fn
// runs on the stream's goroutine between batches, so it must not block.
func WithBatchObserver(fn func(*ApplyReport)) StreamApplyOption {
	return func(o *streamOpts) { o.observer = fn }
}

// ApplyStats is a live snapshot of stream ingestion, readable from any
// goroutine while an ApplyStream is running (and after it returns). It is
// provenance whole.
type ApplyStats struct {
	// Pending is the current queue depth: deltas accepted into the batch
	// being gathered but not yet applied.
	Pending int `json:"pending"`
	// Received and Rejected count deltas read off the channel so far.
	Received int `json:"received"`
	Rejected int `json:"rejected"`
	// Batches counts flushes so far; MaxPending is the high-water queue
	// depth.
	Batches    int `json:"batches"`
	MaxPending int `json:"max_pending"`
}

// ApplyStats returns the live ingestion snapshot of the engine's most
// recent ApplyStream (zero value if none has run).
func (e *Engine) ApplyStats() ApplyStats {
	if s := e.streamStats.Load(); s != nil {
		return *s
	}
	return ApplyStats{}
}

// ApplyStreamReport summarises one ApplyStream run. It is provenance whole.
type ApplyStreamReport struct {
	// Deltas counts deltas read from the channel; Rejected of those named
	// what the network lacks or left a network that does not validate
	// (what Apply refuses with ErrInvalidDelta), and were skipped: the
	// stream continues.
	Deltas   int `json:"deltas"`
	Rejected int `json:"rejected"`
	// Batches counts flushes; EmptyBatches of those had an empty net change
	// (e.g. a flap storm returning every link to its base state) and
	// touched nothing.
	Batches      int `json:"batches"`
	EmptyBatches int `json:"empty_batches"`
	// EditsReceived counts individual edits across all accepted deltas;
	// EditsApplied counts the batches' net changes: the link records and
	// the routers that differ from each batch's base. Coalesced is the
	// difference, and CoalesceRatio is EditsReceived/EditsApplied (0 when
	// nothing was applied).
	EditsReceived int     `json:"edits_received"`
	EditsApplied  int     `json:"edits_applied"`
	Coalesced     int     `json:"coalesced"`
	CoalesceRatio float64 `json:"coalesce_ratio,omitempty"`
	// Adoption totals across batches, as in ApplyReport.
	Adopted        int `json:"adopted"`
	Invalidated    int `json:"invalidated"`
	NewClasses     int `json:"new_classes"`
	RemovedClasses int `json:"removed_classes"`
	// DegradedBatches counts batches that exceeded the adoption sweep's
	// profitable range and swapped to a cold snapshot instead.
	DegradedBatches int `json:"degraded_batches,omitempty"`
	// MaxPending is the high-water queue depth; the flush counters say why
	// each batch was cut (channel drained, count bound, staleness window,
	// channel closed).
	MaxPending   int           `json:"max_pending"`
	FlushDrain   int           `json:"flush_drain"`
	FlushPending int           `json:"flush_pending"`
	FlushStale   int           `json:"flush_stale"`
	FlushClose   int           `json:"flush_close"`
	Duration     time.Duration `json:"duration_ns"`
}

// ApplyAll replays a recorded delta sequence through the stream path and
// returns its report. It is the recovery entry point: a journal tail
// re-applied as one burst is one batch, so a flap storm that crashed
// mid-burst costs one rebuild on recovery, not one per flap. A batch is its
// deltas applied in order, each refused on its own as Apply refuses it, so
// the configuration recovered is the one the live applies reached: a delta
// rejected live is rejected again on every recovery, and the deltas around
// it stand.
func (e *Engine) ApplyAll(ctx context.Context, deltas []Delta, opts ...StreamApplyOption) (*ApplyStreamReport, error) {
	// The whole sequence is in hand, so hand it to the stream in one
	// fully-buffered burst. An unbuffered feed would let the drain-flush
	// fire between single sends, degrading a 10k-delta journal tail into
	// ~10k rebuilds instead of one batch.
	ch := make(chan Delta, len(deltas))
	for _, d := range deltas {
		ch <- d
	}
	close(ch)
	return e.ApplyStream(ctx, ch, opts...)
}

// ApplyStream consumes configuration deltas from a channel until it closes,
// gathering queued deltas into batches and applying each batch as a single
// topology rebuild plus one adoption pass. A batch is its deltas applied in
// order to a fork of the served configuration, each validated and checked
// as Apply does it; the rebuild sees only the batch's net change, so a
// flap's LinkDown + LinkUp cancels before any invalidation. The robustness
// contract:
//
//   - Backpressure: the channel is read only as fast as rebuilds complete —
//     a batch applies on the stream's goroutine, so while it does, producers
//     block (or buffer in the channel). ApplyStats reports the queue depth
//     and the counts of every delta read so far, rejected ones included.
//   - Bounded staleness: a batch is cut, in this order of checks, once it
//     holds WithMaxPending deltas (pending); without WithMaxStaleness, as soon
//     as a non-blocking poll finds the channel empty (drain); with it, once
//     the window opened by the batch's first delta expires (stale); or when
//     the channel closes (close).
//   - Graceful degradation: an oversized burst swaps to a cold snapshot
//     (classes recompress lazily) instead of erroring or buffering without
//     bound; invalid deltas, including one whose result does not validate,
//     are counted and skipped, never fatal, and one that arrives alone
//     starts no batch.
//
// ApplyStream serializes with Apply (and other ApplyStream calls): it holds
// the engine's apply lock for its whole run. Queries are never blocked —
// they serve the latest published snapshot throughout. The call returns
// when the channel closes (applying any pending batch first), a batch fails
// to apply, the context is cancelled, or the engine is closed mid-stream
// (ErrClosed). Cancel and Close abandon the pending batch: the last
// published snapshot stands. The report is non-nil even on error, covering
// the work done up to the failure.
func (e *Engine) ApplyStream(ctx context.Context, deltas <-chan Delta, opts ...StreamApplyOption) (*ApplyStreamReport, error) {
	var o streamOpts
	for _, opt := range opts {
		opt(&o)
	}
	rep := &ApplyStreamReport{}
	if e.closed.Load() {
		return rep, ErrClosed
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	start := time.Now()

	// The report's counters are the live stats: every change is published.
	pending := 0
	publish := func() {
		e.streamStats.Store(&ApplyStats{
			Pending:    pending,
			Received:   rep.Deltas,
			Rejected:   rep.Rejected,
			Batches:    rep.Batches,
			MaxPending: rep.MaxPending,
		})
	}
	publish()
	finish := func(err error) (*ApplyStreamReport, error) {
		if rep.EditsApplied > 0 {
			rep.CoalesceRatio = float64(rep.EditsReceived) / float64(rep.EditsApplied)
		}
		rep.Duration = time.Since(start)
		pending = 0
		publish()
		return rep, err
	}

	bt := newBatch(e.state.Load())
	take := func(d Delta) {
		rep.Deltas++
		if bt.add(&d) != nil {
			rep.Rejected++
		} else if pending++; pending > rep.MaxPending {
			rep.MaxPending = pending
		}
		publish()
	}
	// cut applies the pending batch, counts the cut under reason, and
	// starts the next batch against the new snapshot.
	cut := func(reason *int) error {
		rep.Batches++
		*reason++
		rep.EditsReceived += bt.edits
		br, err := e.applyBatch(ctx, bt)
		if err == nil {
			applied := bt.edits - br.Coalesced
			if applied == 0 {
				rep.EmptyBatches++
			}
			rep.EditsApplied += applied
			rep.Coalesced += br.Coalesced
			rep.Adopted += br.Adopted
			rep.Invalidated += br.Invalidated
			rep.NewClasses += br.NewClasses
			rep.RemovedClasses += br.RemovedClasses
			if br.Degraded {
				rep.DegradedBatches++
			}
			if o.observer != nil {
				o.observer(br)
			}
		}
		pending = 0
		bt = newBatch(e.state.Load())
		publish()
		return err
	}

	for {
		// Block for the first delta of the next batch.
		select {
		case <-ctx.Done():
			return finish(ctx.Err())
		case <-e.closeCh:
			return finish(ErrClosed)
		case d, ok := <-deltas:
			if !ok {
				return finish(nil)
			}
			take(d)
		}
		if pending == 0 {
			continue
		}

		// Gather until a cut rule fires.
		var (
			timer *time.Timer
			cutBy *int
			err   error
		)
		if o.maxStaleness > 0 {
			timer = time.NewTimer(o.maxStaleness)
		}
		for cutBy == nil && err == nil {
			switch {
			case o.maxPending > 0 && pending >= o.maxPending:
				cutBy = &rep.FlushPending
			case timer == nil:
				select {
				case d, ok := <-deltas:
					if !ok {
						cutBy = &rep.FlushClose
					} else {
						take(d)
					}
				default:
					cutBy = &rep.FlushDrain
				}
			default:
				select {
				case <-ctx.Done():
					err = ctx.Err()
				case <-e.closeCh:
					err = ErrClosed
				case <-timer.C:
					cutBy = &rep.FlushStale
				case d, ok := <-deltas:
					if !ok {
						cutBy = &rep.FlushClose
					} else {
						take(d)
					}
				}
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if err == nil {
			err = cut(cutBy)
		}
		if err != nil || cutBy == &rep.FlushClose {
			return finish(err)
		}
	}
}
