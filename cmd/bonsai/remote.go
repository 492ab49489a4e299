package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"bonsai"
	"bonsai/internal/server"
)

// remote reports whether the shared flags select thin-client mode and
// returns the daemon client plus tenant name. With -f also given, the
// tenant is opened from the file first (an already-open tenant is fine, so
// scripted invocations are idempotent).
func (ef engineFlags) remote(ctx context.Context) (*server.Client, string, bool, error) {
	if *ef.server == "" {
		return nil, "", false, nil
	}
	if *ef.tenant == "" {
		return nil, "", false, fmt.Errorf("-server requires -tenant NAME")
	}
	c := server.NewClient(*ef.server)
	if *ef.file != "" {
		f, err := os.Open(*ef.file)
		if err != nil {
			return nil, "", false, err
		}
		defer f.Close()
		err = c.Open(ctx, *ef.tenant, f)
		if err != nil && server.StatusCode(err) != http.StatusConflict {
			return nil, "", false, fmt.Errorf("opening tenant %q: %w", *ef.tenant, err)
		}
	}
	return c, *ef.tenant, true, nil
}

// remoteCompress is cmdCompress against a daemon tenant: rows stream over
// NDJSON exactly as the local pipeline streams them.
func remoteCompress(ctx context.Context, ef engineFlags, c *server.Client, tenant string, sel bonsai.ClassSelector, printRows bool) error {
	var row func(bonsai.ClassResult)
	if printRows {
		row = printCompressRow
	}
	rep, err := c.CompressStream(ctx, tenant, sel, row)
	if err != nil {
		return err
	}
	if done, err := ef.emit(rep); done {
		return err
	}
	printCompressSummary(rep)
	return nil
}

// remoteReplay pipes the JSONL log through POST /replay, letting the
// daemon's ingest backpressure pace the upload. resumeFrom skips the first N
// deltas of the log — the prefix a previous aborted replay already got
// acknowledged (a durable daemon journals each delta before applying it, so
// the acknowledged prefix survives even a daemon crash).
func remoteReplay(ctx context.Context, ef engineFlags, c *server.Client, tenant, logPath string, pending int, staleness time.Duration, cold bool, resumeFrom int64) error {
	if !cold {
		if _, err := c.Compress(ctx, tenant, bonsai.ClassSelector{}); err != nil {
			return err
		}
	}
	in, err := openLog(logPath)
	if err != nil {
		return err
	}
	defer in.Close()
	// Strip comments/blank lines but validate JSON client-side so a typo'd
	// log fails with a line number instead of a mid-stream 400.
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(scanLog(in, logPath, resumeFrom, func(raw []byte) error {
			if !json.Valid(raw) {
				return errors.New("invalid JSON")
			}
			_, err := pw.Write(append(raw, '\n'))
			return err
		}))
	}()
	rep, err := c.Replay(ctx, tenant, pr, pending, staleness)
	if err != nil {
		reportLastAcked(ctx, c, tenant, err)
		return err
	}
	if done, err := ef.emit(rep); done {
		return err
	}
	printReplayReport(rep)
	return nil
}

// reportLastAcked runs after a failed replay stream: it asks the daemon how
// far the tenant's journal got so the operator can resume the log without
// re-sending the acknowledged prefix. Best-effort — if the daemon is down
// (the usual reason the stream died), it says so and the operator restarts
// the daemon first; its recovery replays the journal, and /stats then
// reports the same sequence.
func reportLastAcked(ctx context.Context, c *server.Client, tenant string, cause error) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	st, err := c.Stats(sctx, tenant)
	if err != nil || st.Journal == nil {
		fmt.Fprintf(os.Stderr, "replay: stream failed (%v); daemon unreachable or tenant not durable — after it is back, check journal seq in /stats and rerun with -resume-from\n", cause)
		return
	}
	fmt.Fprintf(os.Stderr, "replay: stream failed (%v); daemon acknowledged %d deltas (journal seq %d, applied %d) — rerun with -resume-from %d\n",
		cause, st.Journal.LastSeq, st.Journal.LastSeq, st.Journal.AppliedSeq, st.Journal.LastSeq)
}
