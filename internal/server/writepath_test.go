package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/config"
	"bonsai/internal/journal"
	"bonsai/internal/netgen"
)

// seesaw returns the two order-sensitive deltas of the write-path tests: each
// sets both of the network's first two links, in opposite directions, so the
// tenant's final config names whichever delta was applied last.
func seesaw(net *config.Network) [2]bonsai.Delta {
	l0 := bonsai.LinkRef{A: net.Links[0].A, B: net.Links[0].B}
	l1 := bonsai.LinkRef{A: net.Links[1].A, B: net.Links[1].B}
	return [2]bonsai.Delta{
		{LinkDown: []bonsai.LinkRef{l0}, LinkUp: []bonsai.LinkRef{l1}},
		{LinkUp: []bonsai.LinkRef{l0}, LinkDown: []bonsai.LinkRef{l1}},
	}
}

// waitUntil polls cond until it holds or five seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDeleteDuringReplay: DELETE must not wait on a replay's client. With a
// replay held open by its body and one apply parked behind it, the delete
// returns promptly, the replay ends with an error, the parked apply sees the
// tenant gone, and nothing is left on disk.
func TestDeleteDuringReplay(t *testing.T) {
	dataDir := t.TempDir()
	s, c := newTestServer(t, Config{DataDir: dataDir, Fsync: journal.SyncNever})
	ctx := context.Background()
	openFattree(t, c, "ft", 4)
	both := seesaw(netgen.Fattree(4, netgen.PolicyShortestPath))
	tn, err := s.reg.get("ft")
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	replayErr := make(chan error, 1)
	go func() {
		_, err := c.Replay(ctx, "ft", pr, 0, 0)
		replayErr <- err
	}()
	if err := json.NewEncoder(pw).Encode(both[0]); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the replay to start ingesting", func() bool { return tn.eng.ApplyStats().Received >= 1 })

	applyErr := make(chan error, 1)
	go func() {
		_, err := c.Apply(ctx, "ft", both[1])
		applyErr <- err
	}()
	waitUntil(t, "the apply to park behind the replay", func() bool { return len(tn.writes) == 1 })

	deleted := make(chan error, 1)
	go func() { deleted <- closeTenant(ctx, c, "ft") }()
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatalf("delete: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("DELETE waits on the replay's client")
	}
	// The body is still open: the replay ended because its tenant did.
	select {
	case err := <-replayErr:
		if err == nil {
			t.Error("replay of a deleted tenant reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replay outlived its tenant")
	}
	if err := <-applyErr; StatusCode(err) != http.StatusNotFound {
		t.Errorf("parked apply: want 404, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, url.PathEscape("ft"))); !os.IsNotExist(err) {
		t.Errorf("tenant dir survived DELETE: %v", err)
	}
}

// TestWriteOrderIsJournalOrder: concurrent /apply writers and a /replay send
// order-sensitive deltas; replaying the journal in sequence order over the
// checkpoint must reproduce the live tenant's config exactly. Background
// checkpoints are off so the tail read below cannot race a truncation.
func TestWriteOrderIsJournalOrder(t *testing.T) {
	const writers, perWriter = 8, 6
	dataDir := t.TempDir()
	s, c := newTestServer(t, Config{
		DataDir: dataDir, Fsync: journal.SyncNever, CheckpointEvery: -1,
		ApplyQueueDepth: writers,
	})
	ctx := context.Background()
	openFattree(t, c, "ft", 4)
	both := seesaw(netgen.Fattree(4, netgen.PolicyShortestPath))
	tn, err := s.reg.get("ft")
	if err != nil {
		t.Fatal(err)
	}
	// write starts the writers; writer w applies both[first(w)], then
	// alternates, per deltas in all.
	var wg sync.WaitGroup
	write := func(per int, first func(w int) int) {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := c.Apply(ctx, "ft", both[(first(w)+i)%2]); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}()
		}
	}
	replay := func(body io.Reader) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Replay(ctx, "ft", body, 0, 0); err != nil {
				t.Errorf("replay: %v", err)
			}
		}()
	}

	// A free-for-all: whatever order the lock hands out is the order.
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	for i := 0; i < 2*perWriter; i++ {
		enc.Encode(both[i%2])
	}
	write(perWriter, func(w int) int { return w })
	replay(&stream)
	wg.Wait()

	// The boundary: every writer arrives with the same delta while a replay
	// is mid-stream, and the replay's last line, the opposite delta, arrives
	// after them. The writers must land after it, in the journal as in the
	// engine.
	pr, pw := io.Pipe()
	replay(pr)
	received := tn.eng.ApplyStats().Received
	json.NewEncoder(pw).Encode(both[0])
	waitUntil(t, "the replay to start ingesting", func() bool { return tn.eng.ApplyStats().Received != received })
	write(1, func(int) int { return 0 })
	waitUntil(t, "every writer to park behind the replay", func() bool { return len(tn.writes) == writers })
	json.NewEncoder(pw).Encode(both[1])
	pw.Close()
	wg.Wait()

	st, err := c.Stats(ctx, "ft")
	if err != nil || st.Journal == nil {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	if want := uint64(writers*perWriter + 2*perWriter + 2 + writers); st.Journal.LastSeq != want || st.Journal.AppliedSeq != want {
		t.Fatalf("journal: last=%d applied=%d, want both %d", st.Journal.LastSeq, st.Journal.AppliedSeq, want)
	}

	dir := filepath.Join(dataDir, url.PathEscape("ft"))
	ck, err := journal.LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	net, err := bonsai.ParseString(string(ck.Payload))
	if err != nil {
		t.Fatalf("parse checkpoint: %v", err)
	}
	ref, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var tail []bonsai.Delta
	if _, err := journal.ReplayDir(dir, ck.Seq, collectDeltas(&tail)); err != nil {
		t.Fatalf("scan journal: %v", err)
	}
	for i, d := range tail {
		if _, err := ref.Apply(ctx, d); err != nil {
			t.Fatalf("journal record %d: %v", i+1, err)
		}
	}
	if got, want := config.PrintString(tn.eng.Network()), config.PrintString(ref.Network()); got != want {
		t.Fatalf("live config is not the journal's:\nlive:\n%s\njournal:\n%s", grepLines(got, "link"), grepLines(want, "link"))
	}
}

// TestReplayOversizedDelta: one replay line past maxDeltaBytes is refused by
// name, and the lines journaled before it are applied.
func TestReplayOversizedDelta(t *testing.T) {
	_, c := newTestServer(t, Config{DataDir: t.TempDir(), Fsync: journal.SyncNever})
	ctx := context.Background()
	openFattree(t, c, "ft", 4)
	both := seesaw(netgen.Fattree(4, netgen.PolicyShortestPath))

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.Encode(both[0])
	enc.Encode(both[1])
	body.WriteString(`{"link_down":[{"a":"` + strings.Repeat("x", maxDeltaBytes) + `","b":"y"}]}` + "\n")
	enc.Encode(both[0])

	_, err := c.Replay(ctx, "ft", &body, 0, 0)
	if StatusCode(err) != http.StatusBadRequest || !strings.Contains(err.Error(), fmt.Sprint(maxDeltaBytes)) {
		t.Fatalf("want 400 naming the %d-byte limit, got %v", maxDeltaBytes, err)
	}
	st, err := c.Stats(ctx, "ft")
	if err != nil || st.Journal == nil {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	if st.Journal.LastSeq != 2 || st.Journal.AppliedSeq != 2 {
		t.Fatalf("journal: last=%d applied=%d, want the two good lines", st.Journal.LastSeq, st.Journal.AppliedSeq)
	}
}
