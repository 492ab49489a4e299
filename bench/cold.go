package main

import (
	"context"
	"fmt"
	"time"

	"bonsai"
	"bonsai/internal/config"
)

// coldDriver times cold verdicts: the paper's batch use, where a tool hands
// over a configuration and waits for the all-pairs answer.
type coldDriver struct {
	w    *workload
	text string
	ref  *reference
	// spot is asked of the engine of each round's first verdict, before its
	// Close and outside its timing: per-pair answers against the reference.
	spot []query
}

func newColdDriver(w *workload, o runOptions) (*coldDriver, error) {
	cfg := w.network()
	d := &coldDriver{w: w, text: config.PrintString(cfg)}
	var err error
	if d.ref, err = buildReference(cfg, w.poolClasses, seededRand(o.seed, streamPool)); err != nil {
		return nil, err
	}
	d.ref.absNodes, d.ref.absLinks = w.absNodes, w.absLinks
	d.spot = d.ref.queries(seededRand(o.seed, streamWarm), len(d.ref.pool))
	if o.selftest {
		d.spot[0] = d.ref.corrupt()
	}
	// Warm-up verdict: page in the code and let the runtime size its heap.
	if _, err := d.verdict(&round{}, true); err != nil {
		return nil, err
	}
	return d, nil
}

// verdict runs one cold op and returns its latency. Wrong answers are
// recorded on r; an error means the program refused the op.
func (d *coldDriver) verdict(r *round, spotCheck bool) (time.Duration, error) {
	ctx := context.Background()
	r.attempted++
	t0 := time.Now()
	net, err := bonsai.ParseString(d.text)
	if err != nil {
		return 0, err
	}
	e, err := bonsai.Open(net)
	if err != nil {
		return 0, err
	}
	cr, err := e.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		return 0, err
	}
	rep, err := e.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		return 0, err
	}
	lat := time.Since(t0)
	if err := d.ref.checkVerdict(cr, rep); err != nil {
		r.fail("%v", err)
	}
	if spotCheck {
		for _, q := range d.spot {
			r.attempted++
			got, err := e.Reach(ctx, q.src, q.dest)
			if err != nil || got.Reachable != q.want {
				r.fail("reach %s -> %s: got %v (%v), concrete says %v", q.src, q.dest, got, err, q.want)
			}
		}
	}
	t1 := time.Now()
	if err := e.Close(); err != nil {
		return 0, err
	}
	return lat + time.Since(t1), nil
}

func (d *coldDriver) runRound(int) (*round, error) {
	r := &round{}
	err := r.repeat(d.w.opsPerRound, func(i int) (time.Duration, error) { return d.verdict(r, i == 0) })
	if err != nil {
		return nil, fmt.Errorf("cold verdict: %w", err)
	}
	return r, nil
}

func (d *coldDriver) close() {}
