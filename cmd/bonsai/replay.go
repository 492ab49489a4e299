package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bonsai"
)

// cmdReplay feeds a JSON-lines delta log through the engine's streaming
// ingestion path (Engine.ApplyStream): one bonsai.Delta object per line,
// blank lines and lines starting with '#' skipped. The log is read with the
// stream's own backpressure — a line is consumed only when the engine is
// ready for it — so replaying a large log never buffers it in memory.
// Invalid deltas (unknown routers, malformed prefixes) are counted and
// skipped exactly as a live stream would; malformed JSON aborts the replay.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	ef := addEngineFlags(fs)
	logPath := fs.String("log", "", "JSONL delta log, one Delta per line (- for stdin)")
	pending := fs.Int("pending", 0, "flush a batch once this many deltas are queued (0 = unbounded)")
	staleness := fs.Duration("staleness", 0, "gather a batch for at most this long (0 = flush when the log drains)")
	cold := fs.Bool("cold", false, "skip the warm-up compression (adoption counters will read zero)")
	resumeFrom := fs.Int64("resume-from", 0, "skip the first N deltas of the log — the prefix a prior aborted replay already got acknowledged (see the -resume-from hint it printed)")
	verbose := fs.Bool("v", false, "print one line per applied batch")
	fs.Parse(args)
	if *logPath == "" {
		return fmt.Errorf("replay: -log required")
	}
	if *resumeFrom < 0 {
		return fmt.Errorf("replay: -resume-from must be >= 0")
	}
	ctx := context.Background()
	if c, tenant, ok, err := ef.remote(ctx); err != nil {
		return err
	} else if ok {
		if *verbose {
			return fmt.Errorf("replay: -v is local-only")
		}
		return remoteReplay(ctx, ef, c, tenant, *logPath, *pending, *staleness, *cold, *resumeFrom)
	}
	eng, err := ef.open()
	if err != nil {
		return err
	}
	defer eng.Close()

	// Warm the abstraction cache so batches exercise the adoption path; a
	// cold replay only measures ingestion and rebuild.
	if !*cold {
		if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
			return err
		}
	}

	in, err := openLog(*logPath)
	if err != nil {
		return err
	}
	defer in.Close()

	// The producer decodes lines onto an unbuffered channel: ApplyStream's
	// backpressure contract means the file is read only as fast as batches
	// apply.
	deltas := make(chan bonsai.Delta)
	prodErr := make(chan error, 1)
	go func() {
		defer close(deltas)
		prodErr <- scanLog(in, *logPath, *resumeFrom, func(raw []byte) error {
			var d bonsai.Delta
			if err := json.Unmarshal(raw, &d); err != nil {
				return err
			}
			deltas <- d
			return nil
		})
	}()

	opts := []bonsai.StreamApplyOption{
		bonsai.WithMaxPending(*pending),
		bonsai.WithMaxStaleness(*staleness),
	}
	if *verbose {
		batch := 0
		opts = append(opts, bonsai.WithBatchObserver(func(r *bonsai.ApplyReport) {
			batch++
			fmt.Printf("batch %3d: adopted=%d invalidated=%d new=%d removed=%d coalesced=%d degraded=%v (%v)\n",
				batch, r.Adopted, r.Invalidated, r.NewClasses, r.RemovedClasses,
				r.Coalesced, r.Degraded, r.Duration.Round(time.Microsecond))
		}))
	}

	rep, err := eng.ApplyStream(ctx, deltas, opts...)
	if err != nil {
		return err
	}
	if err := <-prodErr; err != nil {
		return err
	}
	if done, err := ef.emit(rep); done {
		return err
	}
	printReplayReport(rep)
	return nil
}

// openLog opens a delta log; "-" is stdin.
func openLog(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdin, nil
	}
	return os.Open(path)
}

// scanLog hands step each delta line of a JSON-lines log, skipping blank
// lines, lines starting with '#' and the first resumeFrom deltas. A line may
// be up to 16 MiB long. A step error ends the scan, reported as path:line.
func scanLog(in io.Reader, path string, resumeFrom int64, step func(raw []byte) error) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line, nth := 0, int64(0)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		if nth++; nth <= resumeFrom {
			continue
		}
		if err := step(raw); err != nil {
			return fmt.Errorf("replay: %s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}

// printReplayReport renders the stream report for text output (shared by
// the local and thin-client replay paths).
func printReplayReport(rep *bonsai.ApplyStreamReport) {
	ratio := ""
	if rep.CoalesceRatio > 0 {
		ratio = fmt.Sprintf(" (coalesce ratio %.1fx)", rep.CoalesceRatio)
	}
	fmt.Printf("replayed %d deltas (%d rejected) in %v: %d batches (%d empty), %d edits -> %d applied%s\n",
		rep.Deltas, rep.Rejected, rep.Duration.Round(time.Millisecond),
		rep.Batches, rep.EmptyBatches, rep.EditsReceived, rep.EditsApplied, ratio)
	fmt.Printf("adoption: %d adopted, %d invalidated, %d new, %d removed, %d degraded batches\n",
		rep.Adopted, rep.Invalidated, rep.NewClasses, rep.RemovedClasses, rep.DegradedBatches)
	fmt.Printf("flushes: drain %d, pending %d, stale %d, close %d; max queue depth %d\n",
		rep.FlushDrain, rep.FlushPending, rep.FlushStale, rep.FlushClose, rep.MaxPending)
}
