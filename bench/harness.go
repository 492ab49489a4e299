package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func seededRand(seed int64, stream int64) *rand.Rand {
	// Streams keep the draws of one concern (pool, round i, ...) independent
	// of how many numbers another concern consumed.
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// Random streams of a seed.
const (
	streamPool   = 1
	streamWarm   = 2
	streamTrace  = 4
	streamRounds = 1000 // + round index
)

// runOptions is one invocation.
type runOptions struct {
	seed     int64
	seconds  float64
	selftest bool
	outdir   string
	setups   int // segments of an untraced run, each with a timed set-up of its own
}

// round is what one timed round measured.
type round struct {
	opMS []float64 // latency of each primary op
	// ops counts the correct primary ops, which ops_per_s and
	// alloc_kb_per_op divide by; busy is the time the clients spent on them
	// (wall time of the client phase where clients run side by side), with
	// harness bookkeeping and secondary ops excluded.
	ops  int
	busy time.Duration

	attempted, failed int
	failures          []string
	diag              map[string]float64 // untimed extras kept in the run record

	steal float64
	alloc uint64
	speed float64 // reference time per measured time over this round (calib.go)
}

// repeat runs op n times: each latency is a sample, and an op that left no
// failure on r counts as done. An error from op ends the round.
func (r *round) repeat(n int, op func(i int) (time.Duration, error)) error {
	for i := 0; i < n; i++ {
		failed := r.failed
		lat, err := op(i)
		if err != nil {
			return err
		}
		r.opMS = append(r.opMS, ms(lat))
		r.busy += lat
		if r.failed == failed {
			r.ops++
		}
	}
	return nil
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 4 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// driver runs one workload's rounds against a set-up system.
type driver interface {
	runRound(i int) (*round, error) // an error is a broken harness, not a wrong answer
	close()
}

func newDriver(w *workload, o runOptions) (driver, error) {
	switch w.kind {
	case kindCold:
		return newColdDriver(w, o)
	case kindRead:
		return newReadDriver(w, o)
	default:
		return newChurnDriver(w, o)
	}
}

// stealLimit is the stolen share of CPU time past which a traced section is
// counted as noisy (env.rounds_dropped).
const stealLimit = 0.05

// metricValue is one reported number. Rounds holds the per-round statistic
// the value is the median of, where there is one.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Rounds  []float64 `json:"rounds,omitempty"`
}

// record is the full output of one run; the last stdout line is its
// correct/attempted/failed/metrics subset.
type record struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Env       environment            `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Rounds    int                    `json:"rounds"`
	Metrics   map[string]metricValue `json:"metrics"`
	Diag      map[string][]float64   `json:"diag,omitempty"`
}

// runUntraced measures for o.seconds in o.setups equal segments. Each segment
// sets the workload up afresh, timed, and then repeats rounds until its share
// of the time is used; spreading the set-ups over the run lets setup_s see
// as many states of the box as the rounds do. Every set-up and every round
// sits between two calibrations (calib.go), and its times are scaled to the
// reference box's calm speed before any statistic is taken.
func runUntraced(w *workload, o runOptions) (*record, error) {
	var (
		d      driver
		setups []float64
		rounds []*round
		mem    runtime.MemStats
	)
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	rec := &record{Workload: w.name, Seconds: o.seconds, Metrics: map[string]metricValue{}, Diag: map[string][]float64{}}
	start := time.Now()
	segment := time.Duration(o.seconds / float64(o.setups) * float64(time.Second))
	for k := 0; k < o.setups; k++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		before := calibrate()
		t0 := time.Now()
		var err error
		if d, err = newDriver(w, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		runtime.GC()
		after := calibrate()
		setups = append(setups, took.Seconds()*speed(before, after))
		rec.Diag["setup_speed"] = append(rec.Diag["setup_speed"], speed(before, after))

		// Every segment runs at least one round, however short the run.
		for deadline := start.Add(time.Duration(k+1) * segment); len(rounds) <= k || time.Now().Before(deadline); {
			before = after
			runtime.ReadMemStats(&mem)
			alloc0, cpu0 := mem.TotalAlloc, readCPU()
			r, err := d.runRound(len(rounds))
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", len(rounds), err)
			}
			runtime.ReadMemStats(&mem)
			if r.alloc == 0 { // the driver did not count a narrower phase itself
				r.alloc = mem.TotalAlloc - alloc0
			}
			r.steal = stealShare(cpu0, readCPU())
			after = calibrate()
			r.speed = speed(before, after)
			rounds = append(rounds, r)
		}
	}

	rec.Env, rec.Rounds = readEnvironment(o.seed), len(rounds)
	var p50s, tails, rates, steals []float64
	var ops, samples int
	var alloc uint64
	for _, r := range rounds {
		rec.Attempted += r.attempted
		rec.Failed += r.failed
		if len(rec.Failures) < 8 {
			rec.Failures = append(rec.Failures, r.failures...)
		}
		p50s = append(p50s, percentile(r.opMS, 50)*r.speed)
		tails = append(tails, percentile(r.opMS, w.tailPct)*r.speed)
		rates = append(rates, float64(r.ops)/(r.busy.Seconds()*r.speed))
		steals = append(steals, r.steal)
		rec.Diag["speed"] = append(rec.Diag["speed"], r.speed)
		ops += r.ops
		samples += len(r.opMS)
		alloc += r.alloc
		for k, v := range r.diag {
			rec.Diag[k] = append(rec.Diag[k], v)
		}
	}
	rec.Diag["steal"] = steals
	rec.Env.StealShare = mean(steals)
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rec.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: len(setups), Rounds: setups}
	rec.Metrics["op_p50_ms"] = metricValue{Value: median(p50s), Unit: "ms", Samples: samples, Rounds: p50s}
	rec.Metrics["op_tail_ms"] = metricValue{Value: median(tails), Unit: "ms", Samples: samples, Rounds: tails}
	rec.Metrics["ops_per_s"] = metricValue{Value: median(rates), Unit: "1/s", Samples: ops, Rounds: rates}
	rec.Metrics["alloc_kb_per_op"] = metricValue{Value: float64(alloc) / 1024 / float64(max(ops, 1)), Unit: "KiB", Samples: ops}
	rec.Metrics["peak_heap_mb"] = metricValue{Value: float64(mem.HeapSys) / (1 << 20), Unit: "MiB"}
	return rec, nil
}
