package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/journal"
	"bonsai/internal/netgen"
)

// TestDurableDrainRestart: a drained daemon seals each tenant with a final
// checkpoint; a new daemon over the same data dir resurrects the tenant with
// field-identical query results.
func TestDurableDrainRestart(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{DataDir: dataDir, Fsync: journal.SyncNever}

	s1 := New(cfg)
	hs1 := httptest.NewServer(s1)
	c1 := NewClient(hs1.URL)
	if err := c1.OpenNetwork(ctx, "ft", netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
		t.Fatalf("open: %v", err)
	}
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	// A flap plus a lasting failure: recovered state must differ from base.
	for _, d := range []bonsai.Delta{
		{LinkDown: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}}},
		{LinkUp: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}}},
		{LinkDown: []bonsai.LinkRef{{A: net.Links[1].A, B: net.Links[1].B}}},
	} {
		if _, err := c1.Apply(ctx, "ft", d); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	dest := firstClass(t, c1, "ft")
	routes1, err := c1.Routes(ctx, "ft", dest)
	if err != nil || len(routes1.Routes) == 0 {
		t.Fatalf("routes: %+v, %v", routes1, err)
	}
	src := routes1.Routes[0].Router
	reach1, err := c1.Reach(ctx, "ft", src, dest, false)
	if err != nil {
		t.Fatalf("reach: %v", err)
	}
	roles1, err := c1.Roles(ctx, "ft", bonsai.RolesRequest{})
	if err != nil {
		t.Fatalf("roles: %v", err)
	}
	st1, err := c1.Stats(ctx, "ft")
	if err != nil || st1.Journal == nil {
		t.Fatalf("stats: %+v, %v", st1, err)
	}
	if st1.Journal.LastSeq != 3 || st1.Journal.AppliedSeq != 3 {
		t.Fatalf("journal stats: %+v, want last=applied=3", st1.Journal)
	}
	s1.Drain()
	hs1.Close()

	s2 := New(cfg)
	hs2 := httptest.NewServer(s2)
	defer hs2.Close()
	defer s2.Drain()
	c2 := NewClient(hs2.URL)

	tenants, err := c2.Tenants(ctx)
	if err != nil || len(tenants) != 1 || tenants[0].Name != "ft" {
		t.Fatalf("recovered tenants: %+v, %v", tenants, err)
	}
	st2, err := c2.Stats(ctx, "ft")
	if err != nil || st2.Journal == nil || st2.Journal.Recovery == nil {
		t.Fatalf("recovered stats: %+v, %v", st2, err)
	}
	// Drain sealed with a checkpoint, so recovery replayed nothing.
	if rec := st2.Journal.Recovery; rec.ReplayedDeltas != 0 || rec.CheckpointSeq != 3 || rec.Gap {
		t.Fatalf("recovery info: %+v, want checkpoint-only at seq 3", rec)
	}
	reach2, err := c2.Reach(ctx, "ft", src, dest, false)
	if err != nil || reach2.Reachable != reach1.Reachable || reach2.Compressed != reach1.Compressed {
		t.Fatalf("recovered reach %+v vs %+v (err %v)", reach2, reach1, err)
	}
	roles2, err := c2.Roles(ctx, "ft", bonsai.RolesRequest{})
	if err != nil || *roles2 != *roles1 {
		t.Fatalf("recovered roles %+v vs %+v (err %v)", roles2, roles1, err)
	}
	routes2, err := c2.Routes(ctx, "ft", dest)
	if err != nil || !sameRoutes(routes1, routes2) {
		t.Fatalf("recovered routes differ: %+v vs %+v (err %v)", routes2, routes1, err)
	}

	// DELETE destroys the tenant's history; the next daemon has no tenants.
	if err := c2.Close(ctx, "ft"); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, url.PathEscape("ft"))); !os.IsNotExist(err) {
		t.Fatalf("tenant dir survived DELETE: %v", err)
	}
	s2.Drain()
	hs2.Close()
	s3 := New(cfg)
	defer s3.Drain()
	if names := s3.reg.names(); len(names) != 0 {
		t.Fatalf("deleted tenant resurrected: %v", names)
	}
}

// TestDurableTailRecovery crafts a data dir with a checkpoint plus an
// unsealed journal tail (what a kill -9 leaves behind) and verifies New
// replays the tail: the recovered tenant matches a never-crashed engine that
// applied the same deltas, and the replay shows up in /stats and /metrics.
func TestDurableTailRecovery(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)

	// Reference: a never-crashed engine over the same history.
	ref, err := bonsai.Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	defer ref.Close()
	deltas := []bonsai.Delta{
		{LinkDown: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}}},
		{LinkUp: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}}},
		{LinkDown: []bonsai.LinkRef{{A: net.Links[2].A, B: net.Links[2].B}}},
	}
	if _, err := ref.ApplyAll(ctx, deltas); err != nil {
		t.Fatalf("reference apply: %v", err)
	}

	// Craft the crashed tenant dir: base checkpoint + journaled tail, no
	// final checkpoint (the journal was never sealed).
	dir := filepath.Join(dataDir, url.PathEscape("ft"))
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	var buf bytes.Buffer
	if err := bonsai.Print(&buf, net); err != nil {
		t.Fatalf("print: %v", err)
	}
	if err := j.WriteCheckpoint(0, buf.Bytes()); err != nil {
		t.Fatalf("base checkpoint: %v", err)
	}
	for _, d := range deltas {
		payload, _ := json.Marshal(d)
		if _, err := j.Append(payload); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	s := New(Config{DataDir: dataDir, Fsync: journal.SyncNever})
	hs := httptest.NewServer(s)
	t.Cleanup(func() { s.Drain(); hs.Close() })
	c := NewClient(hs.URL)

	st, err := c.Stats(ctx, "ft")
	if err != nil || st.Journal == nil || st.Journal.Recovery == nil {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	rec := st.Journal.Recovery
	if rec.ReplayedDeltas != 3 || rec.Truncated || rec.Gap {
		t.Fatalf("recovery info: %+v, want 3 clean replayed deltas", rec)
	}
	if st.Journal.AppliedSeq != 3 {
		t.Fatalf("applied seq %d, want 3", st.Journal.AppliedSeq)
	}

	dest := firstClass(t, c, "ft")
	refRoutes, err := ref.Routes(ctx, dest)
	if err != nil {
		t.Fatalf("reference routes: %v", err)
	}
	gotRoutes, err := c.Routes(ctx, "ft", dest)
	if err != nil || !sameRoutes(refRoutes, gotRoutes) {
		t.Fatalf("recovered routes differ from reference (err %v)", err)
	}
	src := refRoutes.Routes[0].Router
	refReach, err := ref.Reach(ctx, src, dest)
	if err != nil {
		t.Fatalf("reference reach: %v", err)
	}
	gotReach, err := c.Reach(ctx, "ft", src, dest, false)
	if err != nil || gotReach.Reachable != refReach.Reachable {
		t.Fatalf("recovered reach %+v vs reference %+v (err %v)", gotReach, refReach, err)
	}

	exp, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(exp, `bonsaid_journal_replayed_deltas_total{tenant="ft"} 3`) {
		t.Fatalf("metrics missing replay counter:\n%s", grepLines(exp, "journal"))
	}
}

// TestReplayAbortReconverges cancels a replay stream mid-flight and checks
// the daemon restores the durability invariant on its own: every journaled
// record ends up applied (applied_seq catches up to last_seq), and the
// tenant keeps serving.
func TestReplayAbortReconverges(t *testing.T) {
	dataDir := t.TempDir()
	_, c := newTestServer(t, Config{DataDir: dataDir, Fsync: journal.SyncNever})
	ctx := context.Background()
	if err := c.OpenNetwork(ctx, "ft", netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
		t.Fatalf("open: %v", err)
	}
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	l := net.Links[0]

	pr, pw := io.Pipe()
	streamCtx, cancel := context.WithCancel(ctx)
	replayErr := make(chan error, 1)
	go func() {
		_, err := c.Replay(streamCtx, "ft", pr, 0, 0)
		replayErr <- err
	}()
	// Feed a few deltas so some are journaled, then abort the stream.
	for i := 0; i < 4; i++ {
		line := fmt.Sprintf(`{"link_down":[{"a":%q,"b":%q}]}`+"\n", l.A, l.B)
		if i%2 == 1 {
			line = fmt.Sprintf(`{"link_up":[{"a":%q,"b":%q}]}`+"\n", l.A, l.B)
		}
		if _, err := io.WriteString(pw, line); err != nil {
			break
		}
	}
	// Give the server a moment to journal at least one record, then abort.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(ctx, "ft")
		if err == nil && st.Journal != nil && st.Journal.LastSeq > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delta journaled before abort")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	pw.CloseWithError(context.Canceled)
	if err := <-replayErr; err == nil {
		t.Fatal("aborted replay reported success")
	}

	// Reconverge: applied catches up to journaled.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(ctx, "ft")
		if err == nil && st.Journal != nil &&
			st.Journal.LastSeq > 0 && st.Journal.AppliedSeq == st.Journal.LastSeq {
			break
		}
		if time.Now().After(deadline) {
			st, _ := c.Stats(ctx, "ft")
			t.Fatalf("applied_seq never caught up: %+v", st.Journal)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The tenant still serves and the sequence continues past the abort.
	st, _ := c.Stats(ctx, "ft")
	before := st.Journal.LastSeq
	if _, err := c.Apply(ctx, "ft", bonsai.Delta{
		LinkDown: []bonsai.LinkRef{{A: l.A, B: l.B}},
	}); err != nil {
		t.Fatalf("apply after abort: %v", err)
	}
	st, err := c.Stats(ctx, "ft")
	if err != nil || st.Journal.LastSeq != before+1 || st.Journal.AppliedSeq != before+1 {
		t.Fatalf("post-abort journal: %+v, want seq %d", st.Journal, before+1)
	}
}

// TestDurableCheckpointTruncates drives enough deltas through a tenant with
// a tiny checkpoint threshold to force background checkpoints, then checks
// the journal tail stays bounded and a restart recovers from the checkpoint.
func TestDurableCheckpointTruncates(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{DataDir: dataDir, Fsync: journal.SyncNever, CheckpointEvery: 4}

	s1 := New(cfg)
	hs1 := httptest.NewServer(s1)
	c1 := NewClient(hs1.URL)
	if err := c1.OpenNetwork(ctx, "ft", netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
		t.Fatalf("open: %v", err)
	}
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	for i := 0; i < 16; i++ {
		l := net.Links[i%3]
		d := bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: l.A, B: l.B}}}
		if i%2 == 1 {
			d = bonsai.Delta{LinkUp: []bonsai.LinkRef{{A: l.A, B: l.B}}}
		}
		if _, err := c1.Apply(ctx, "ft", d); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	// The background checkpointer runs async; wait for it to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c1.Stats(ctx, "ft")
		if err == nil && st.Journal != nil && st.Journal.Checkpoints > 0 &&
			st.Journal.TailRecords < 16 {
			break
		}
		if time.Now().After(deadline) {
			st, _ := c1.Stats(ctx, "ft")
			t.Fatalf("checkpointer never truncated the tail: %+v", st.Journal)
		}
		time.Sleep(10 * time.Millisecond)
	}
	roles1, err := c1.Roles(ctx, "ft", bonsai.RolesRequest{})
	if err != nil {
		t.Fatalf("roles: %v", err)
	}
	s1.Drain()
	hs1.Close()

	s2 := New(cfg)
	defer s2.Drain()
	hs2 := httptest.NewServer(s2)
	defer hs2.Close()
	c2 := NewClient(hs2.URL)
	roles2, err := c2.Roles(ctx, "ft", bonsai.RolesRequest{})
	if err != nil || *roles2 != *roles1 {
		t.Fatalf("recovered roles %+v vs %+v (err %v)", roles2, roles1, err)
	}
}

func firstClass(t *testing.T, c *Client, name string) string {
	t.Helper()
	var prefix string
	_, err := c.CompressStream(context.Background(), name, bonsai.ClassSelector{MaxClasses: 1},
		func(r bonsai.ClassResult) { prefix = r.Prefix })
	if err != nil || prefix == "" {
		t.Fatalf("no class prefix: %v", err)
	}
	return prefix
}

func sameRoutes(a, b *bonsai.RoutesReport) bool {
	if a.Dest != b.Dest || len(a.Routes) != len(b.Routes) {
		return false
	}
	am := make(map[string]string, len(a.Routes))
	for _, r := range a.Routes {
		am[r.Router] = fmt.Sprintf("%s|%v", r.Label, r.NextHops)
	}
	for _, r := range b.Routes {
		if am[r.Router] != fmt.Sprintf("%s|%v", r.Label, r.NextHops) {
			return false
		}
	}
	return true
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSealedRelationStoreWarmsRecovery: a drained daemon seals each durable
// tenant's completed abstractions beside its journal; the next daemon
// recovers the tenant warm — identical compression results with zero fresh
// refinements — and exposes the BDD layer on /metrics. The tenant's last
// delta takes a link down, so the sealed store holds adopted entries (the
// case a store was once rejected whole for).
func TestSealedRelationStoreWarmsRecovery(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{DataDir: dataDir, Fsync: journal.SyncNever}

	s1 := New(cfg)
	hs1 := httptest.NewServer(s1)
	c1 := NewClient(hs1.URL)
	if err := c1.OpenNetwork(ctx, "ft", netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c1.Compress(ctx, "ft", bonsai.ClassSelector{}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	rep, err := c1.Apply(ctx, "ft", bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-1-0", B: "core-0"}}})
	if err != nil || rep.Unchanged == 0 {
		t.Fatalf("link-down adopted nothing unchanged: %+v, %v", rep, err)
	}
	cold, err := c1.Compress(ctx, "ft", bonsai.ClassSelector{})
	if err != nil {
		t.Fatalf("compress after delta: %v", err)
	}
	if cold.Cache.Fresh == 0 {
		t.Fatalf("cold daemon computed no abstractions: %+v", cold.Cache)
	}
	s1.Drain()
	hs1.Close()
	if _, err := os.Stat(filepath.Join(dataDir, url.PathEscape("ft"), relStoreFile)); err != nil {
		t.Fatalf("drain did not seal a relation store: %v", err)
	}

	s2 := New(cfg)
	hs2 := httptest.NewServer(s2)
	defer hs2.Close()
	defer s2.Drain()
	c2 := NewClient(hs2.URL)
	warm, err := c2.Compress(ctx, "ft", bonsai.ClassSelector{})
	if err != nil {
		t.Fatalf("warm compress: %v", err)
	}
	if warm.Cache.Fresh != 0 {
		t.Fatalf("recovered daemon ran %d fresh refinements, want 0", warm.Cache.Fresh)
	}
	if warm.ClassesCompressed != cold.ClassesCompressed ||
		warm.SumAbstractNodes != cold.SumAbstractNodes ||
		warm.SumAbstractLinks != cold.SumAbstractLinks {
		t.Fatalf("warm compression differs: %+v vs %+v", warm, cold)
	}
	metricsText, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, name := range []string{
		"bonsai_bdd_nodes_live", "bonsai_bdd_unique_load_factor",
		"bonsai_bdd_managers", "bonsai_bdd_cache_hits_total",
		"bonsai_bdd_cache_misses_total", "bonsai_bdd_cache_overwrites_total",
	} {
		if !strings.Contains(grepLines(metricsText, name), `tenant="ft"`) {
			t.Fatalf("metric %s missing tenant series:\n%s", name, grepLines(metricsText, name))
		}
	}
}

// TestOldFormatRelationStoreColdStarts: a relstore.bin left by a daemon that
// wrote the version-1 format is refused by its magic; recovery logs the
// rejection and the tenant starts cold, serving the same answers.
func TestOldFormatRelationStoreColdStarts(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{DataDir: dataDir, Fsync: journal.SyncNever}

	s1 := New(cfg)
	hs1 := httptest.NewServer(s1)
	c1 := NewClient(hs1.URL)
	if err := c1.OpenNetwork(ctx, "ft", netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
		t.Fatalf("open: %v", err)
	}
	first, err := c1.Compress(ctx, "ft", bonsai.ClassSelector{})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	s1.Drain()
	hs1.Close()
	path := filepath.Join(dataDir, url.PathEscape("ft"), relStoreFile)
	if err := os.WriteFile(path, []byte("BRELST\x00\x01 whatever a version-1 daemon wrote"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	s2 := New(cfg) // recovery runs, and logs, inside New
	log.SetOutput(prev)
	hs2 := httptest.NewServer(s2)
	defer hs2.Close()
	defer s2.Drain()
	if got := logged.String(); !strings.Contains(got, "relation store rejected (cold start)") || !strings.Contains(got, "bad magic") {
		t.Fatalf("recovery log does not report the rejection:\n%s", got)
	}
	again, err := NewClient(hs2.URL).Compress(ctx, "ft", bonsai.ClassSelector{})
	if err != nil {
		t.Fatalf("compress after cold start: %v", err)
	}
	if again.Cache.Fresh == 0 {
		t.Fatalf("tenant did not start cold: %+v", again.Cache)
	}
	if again.ClassesCompressed != first.ClassesCompressed ||
		again.SumAbstractNodes != first.SumAbstractNodes ||
		again.SumAbstractLinks != first.SumAbstractLinks {
		t.Fatalf("cold-started compression differs: %+v vs %+v", again, first)
	}
}
