// Crash gauntlet: SIGKILL a real bonsaid child process at fault-injected
// points in the durability path (journal append, fsync, checkpoint rename,
// engine state swap) during an apply storm, then restart over the same data
// dir and require the recovered tenant to be field-identical to a
// never-crashed reference engine that applied the same durable delta
// prefix. Separately asserts the ack contract: every delta the client saw
// acknowledged is in that durable prefix.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/journal"
	"bonsai/internal/netgen"
)

// buildBonsaid compiles cmd/bonsaid once per test binary. The gauntlet needs
// a real child process: SIGKILL semantics (no deferred cleanup, no Go
// runtime shutdown) cannot be faked in-process.
var bonsaidBuild struct {
	once sync.Once
	path string
	err  error
}

func buildBonsaid(t *testing.T) string {
	t.Helper()
	bonsaidBuild.once.Do(func() {
		dir, err := os.MkdirTemp("", "bonsaid-gauntlet-*")
		if err != nil {
			bonsaidBuild.err = err
			return
		}
		bin := filepath.Join(dir, "bonsaid")
		out, err := exec.Command("go", "build", "-o", bin, "bonsai/cmd/bonsaid").CombinedOutput()
		if err != nil {
			bonsaidBuild.err = fmt.Errorf("build bonsaid: %v\n%s", err, out)
			return
		}
		bonsaidBuild.path = bin
	})
	if bonsaidBuild.err != nil {
		t.Fatal(bonsaidBuild.err)
	}
	return bonsaidBuild.path
}

type childDaemon struct {
	cmd  *exec.Cmd
	addr string
	exit chan error
}

var listenRe = regexp.MustCompile(`listening on ([^ ]+) \(`)

// startBonsaid launches the daemon on an ephemeral port, optionally armed
// with a BONSAID_CRASH_POINT, and waits for its listening line.
func startBonsaid(t *testing.T, bin, dataDir string, extra []string, crash string) *childDaemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	if crash != "" {
		cmd.Env = append(os.Environ(), "BONSAID_CRASH_POINT="+crash)
	}
	// Own pipe rather than StderrPipe: cmd.Wait must not race the reader.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		t.Fatalf("start bonsaid: %v", err)
	}
	pw.Close()
	addrCh := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	d := &childDaemon{cmd: cmd, exit: exit}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	select {
	case d.addr = <-addrCh:
	case err := <-exit:
		t.Fatalf("bonsaid exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("bonsaid never reported listening")
	}
	return d
}

func (d *childDaemon) client() *Client { return NewClient("http://" + d.addr) }

func (d *childDaemon) waitExit(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-d.exit:
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		t.Fatal("daemon still alive; crash point never fired")
	}
}

// stormDeltas builds a deterministic flap storm: link i%4 toggles on each
// visit, so the end state differs from the base network and from any proper
// prefix — a recovery that loses or reorders deltas cannot luck into the
// right answer.
func stormDeltas(net *bonsai.Network, n int) []bonsai.Delta {
	deltas := make([]bonsai.Delta, 0, n)
	down := make([]bool, 4)
	for i := 0; i < n; i++ {
		l := net.Links[i%4]
		ref := []bonsai.LinkRef{{A: l.A, B: l.B}}
		if down[i%4] {
			deltas = append(deltas, bonsai.Delta{LinkUp: ref})
		} else {
			deltas = append(deltas, bonsai.Delta{LinkDown: ref})
		}
		down[i%4] = !down[i%4]
	}
	return deltas
}

type seqDelta struct {
	seq uint64
	d   bonsai.Delta
}

// durableView decodes what actually survived on disk: the checkpoint plus
// every valid journal record past it — the same read a restarted daemon
// performs, done read-only by the harness.
func durableView(t *testing.T, dataDir, name string) (*journal.Checkpoint, []seqDelta, journal.ReplayInfo) {
	t.Helper()
	dir := filepath.Join(dataDir, url.PathEscape(name))
	ck, err := journal.LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	var tail []seqDelta
	info, err := journal.ReplayDir(dir, ck.Seq, func(seq uint64, payload []byte) error {
		var d bonsai.Delta
		if err := json.Unmarshal(payload, &d); err != nil {
			return err
		}
		tail = append(tail, seqDelta{seq, d})
		return nil
	})
	if err != nil {
		t.Fatalf("replay dir: %v", err)
	}
	return ck, tail, info
}

// referenceEngine builds the never-crashed control: parse the durable
// checkpoint's config and apply the durable journal tail through the same
// stream path recovery uses.
func referenceEngine(t *testing.T, ck *journal.Checkpoint, tail []seqDelta) *bonsai.Engine {
	t.Helper()
	net, err := bonsai.ParseString(string(ck.Payload))
	if err != nil {
		t.Fatalf("parse checkpoint config: %v", err)
	}
	ref, err := bonsai.Open(net)
	if err != nil {
		t.Fatalf("open reference: %v", err)
	}
	t.Cleanup(func() { ref.Close() })
	if len(tail) > 0 {
		deltas := make([]bonsai.Delta, len(tail))
		for i, sd := range tail {
			deltas[i] = sd.d
		}
		if _, err := ref.ApplyAll(context.Background(), deltas); err != nil {
			t.Fatalf("reference apply: %v", err)
		}
	}
	return ref
}

// compareRecovered requires the recovered daemon's Verify/Reach/Roles/Routes
// answers to equal the reference engine's. Only the answer parts are
// compared: a recovered tenant has a different cache history from a
// reference that never crashed, so its provenance may differ.
func compareRecovered(t *testing.T, ctx context.Context, ref *bonsai.Engine, c *Client, name string) {
	t.Helper()
	refV, err := ref.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		t.Fatalf("reference verify: %v", err)
	}
	gotV, err := c.Verify(ctx, name, bonsai.VerifyRequest{})
	if err != nil {
		t.Fatalf("recovered verify: %v", err)
	}
	if gotV.VerifyAnswer != refV.VerifyAnswer {
		t.Fatalf("verify diverged:\nrecovered %+v\nreference %+v", gotV.VerifyAnswer, refV.VerifyAnswer)
	}
	classes := ref.Classes()
	if len(classes) == 0 {
		t.Fatal("reference has no classes")
	}
	dest := classes[0]
	refR, err := ref.Routes(ctx, dest)
	if err != nil {
		t.Fatalf("reference routes: %v", err)
	}
	gotR, err := c.Routes(ctx, name, dest)
	if err != nil {
		t.Fatalf("recovered routes: %v", err)
	}
	if !reflect.DeepEqual(refR, gotR) {
		t.Fatalf("routes diverged for %s:\nrecovered %+v\nreference %+v", dest, gotR, refR)
	}
	src := refR.Routes[0].Router
	refReach, err := ref.Reach(ctx, src, dest)
	if err != nil {
		t.Fatalf("reference reach: %v", err)
	}
	gotReach, err := c.Reach(ctx, name, src, dest, false)
	if err != nil {
		t.Fatalf("recovered reach: %v", err)
	}
	if gotReach.ReachAnswer != refReach.ReachAnswer {
		t.Fatalf("reach(%s,%s) diverged: recovered %+v, reference %+v",
			src, dest, gotReach.ReachAnswer, refReach.ReachAnswer)
	}
	refRC, err := ref.ReachConcrete(ctx, src, dest)
	if err != nil {
		t.Fatalf("reference concrete reach: %v", err)
	}
	gotRC, err := c.Reach(ctx, name, src, dest, true)
	if err != nil {
		t.Fatalf("recovered concrete reach: %v", err)
	}
	if gotRC.ReachAnswer != refRC.ReachAnswer || gotRC.ReachAnswer != gotReach.ReachAnswer {
		t.Fatalf("concrete reach diverged: recovered %+v, reference %+v, compressed %+v",
			gotRC.ReachAnswer, refRC.ReachAnswer, gotReach.ReachAnswer)
	}
	refRoles, err := ref.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatalf("reference roles: %v", err)
	}
	gotRoles, err := c.Roles(ctx, name, bonsai.RolesRequest{})
	if err != nil {
		t.Fatalf("recovered roles: %v", err)
	}
	if *gotRoles != *refRoles {
		t.Fatalf("roles diverged: recovered %+v, reference %+v", gotRoles, refRoles)
	}
}

// TestCrashGauntlet kills bonsaid at each durability seam mid-storm.
func TestCrashGauntlet(t *testing.T) {
	if testing.Short() {
		t.Skip("crash gauntlet spawns child daemons")
	}
	bin := buildBonsaid(t)
	scenarios := []struct {
		name  string
		crash string
		extra []string
	}{
		// Die before the 6th journal write: the in-flight delta must not be
		// acked and must not resurface.
		{"append", "journal.append@6", nil},
		// Die before the 4th fsync: the record hit the page cache (kill -9
		// is not power loss), so it survives — but its ack never went out.
		{"fsync", "journal.fsync@4", nil},
		// Die between writing checkpoint.tmp and renaming it (fire #1 is the
		// base checkpoint at open): the old checkpoint plus the full journal
		// must still reconstruct the state the checkpoint tried to capture.
		{"ckpt-rename", "checkpoint.rename@2", []string{"-checkpoint-every", "4"}},
		// Die after journal+fsync but before the engine publishes the new
		// state: the delta was durable but never acked; recovery applies it.
		{"apply-swap", "apply.swap@5", nil},
		// fsync never + kill -9: process death loses nothing the kernel
		// already has.
		{"fsync-never", "journal.append@8", []string{"-fsync", "never"}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			runCrashScenario(t, bin, sc.crash, sc.extra)
		})
	}
}

func runCrashScenario(t *testing.T, bin, crash string, extra []string) {
	dataDir := t.TempDir()
	ctx := context.Background()
	d := startBonsaid(t, bin, dataDir, extra, crash)
	c := d.client()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	if err := openNetwork(ctx, c, "ft", net); err != nil {
		t.Fatalf("open: %v", err)
	}
	deltas := stormDeltas(net, 12)
	acked := 0
	for _, dl := range deltas {
		actx, cancel := context.WithTimeout(ctx, 15*time.Second)
		_, err := c.Apply(actx, "ft", dl)
		cancel()
		if err != nil {
			break
		}
		acked++
	}
	// The kill may fire asynchronously (background checkpointer); wait for
	// the corpse either way.
	d.waitExit(t, 30*time.Second)

	ck, tail, info := durableView(t, dataDir, "ft")
	if info.Gap {
		t.Fatalf("crash alone produced a gap: %+v", info)
	}
	lastDurable := ck.Seq
	if info.LastSeq > lastDurable {
		lastDurable = info.LastSeq
	}
	// Ack contract: everything acknowledged is durable...
	if lastDurable < uint64(acked) {
		t.Fatalf("acked %d deltas but only %d are durable", acked, lastDurable)
	}
	// ...and byte-identical to what was sent.
	for _, sd := range tail {
		if sd.seq <= uint64(acked) && !reflect.DeepEqual(sd.d, deltas[sd.seq-1]) {
			t.Fatalf("durable delta %d differs from sent: %+v vs %+v", sd.seq, sd.d, deltas[sd.seq-1])
		}
	}
	ref := referenceEngine(t, ck, tail)

	d2 := startBonsaid(t, bin, dataDir, extra, "")
	c2 := d2.client()
	st, err := c2.Stats(ctx, "ft")
	if err != nil || st.Journal == nil || st.Journal.Recovery == nil {
		t.Fatalf("recovered stats: %+v, %v", st, err)
	}
	rec := st.Journal.Recovery
	if rec.ReplayedDeltas != len(tail) || rec.CheckpointSeq != ck.Seq {
		t.Fatalf("recovery info %+v, want %d replayed from checkpoint %d", rec, len(tail), ck.Seq)
	}
	if len(tail) > 0 {
		exp, err := c2.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		want := fmt.Sprintf(`bonsaid_journal_replayed_deltas_total{tenant="ft"} %d`, len(tail))
		if !strings.Contains(exp, want) {
			t.Fatalf("metrics missing %q:\n%s", want, grepLines(exp, "journal"))
		}
	}
	compareRecovered(t, ctx, ref, c2, "ft")

	// The recovered daemon is a full citizen: it takes new deltas and drains
	// cleanly (sealing the journal for the next generation).
	if _, err := c2.Apply(ctx, "ft", bonsai.Delta{
		LinkDown: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}},
	}); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.waitExit(t, 30*time.Second)
}

// lastSegment returns the newest wal segment of a tenant dir.
func lastSegment(t *testing.T, dataDir, name string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, url.PathEscape(name), "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// runTamperScenario runs an 8-delta storm to completion, SIGKILLs the
// daemon, lets the caller damage the journal, and verifies recovery degrades
// exactly as ReplayDir predicts — stopping at the last valid record and
// reporting the damage — rather than refusing to start or inventing state.
func runTamperScenario(t *testing.T, tamper func(t *testing.T, seg string)) {
	bin := buildBonsaid(t)
	dataDir := t.TempDir()
	ctx := context.Background()
	d := startBonsaid(t, bin, dataDir, nil, "")
	c := d.client()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	if err := openNetwork(ctx, c, "ft", net); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, dl := range stormDeltas(net, 8) {
		if _, err := c.Apply(ctx, "ft", dl); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	d.cmd.Process.Kill()
	d.waitExit(t, 30*time.Second)

	tamper(t, lastSegment(t, dataDir, "ft"))

	ck, tail, info := durableView(t, dataDir, "ft")
	if !info.Truncated {
		t.Fatalf("tamper went undetected: %+v", info)
	}
	if len(tail) >= 8 {
		t.Fatalf("tamper lost nothing? %d records survived", len(tail))
	}
	ref := referenceEngine(t, ck, tail)

	d2 := startBonsaid(t, bin, dataDir, nil, "")
	c2 := d2.client()
	st, err := c2.Stats(ctx, "ft")
	if err != nil || st.Journal == nil || st.Journal.Recovery == nil {
		t.Fatalf("recovered stats: %+v, %v", st, err)
	}
	rec := st.Journal.Recovery
	if !rec.Truncated || rec.ReplayedDeltas != len(tail) || rec.DroppedBytes == 0 {
		t.Fatalf("recovery info %+v, want truncated with %d replayed", rec, len(tail))
	}
	compareRecovered(t, ctx, ref, c2, "ft")
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.waitExit(t, 30*time.Second)
}

// TestCrashGauntletTornTail cuts the last journal record mid-payload, the
// signature a crash leaves when a write straddled the kill.
func TestCrashGauntletTornTail(t *testing.T) {
	if testing.Short() {
		t.Skip("crash gauntlet spawns child daemons")
	}
	runTamperScenario(t, func(t *testing.T, seg string) {
		fi, err := os.Stat(seg)
		if err != nil || fi.Size() < 6 {
			t.Fatalf("stat %s: %v", seg, err)
		}
		if err := os.Truncate(seg, fi.Size()-5); err != nil {
			t.Fatalf("truncate: %v", err)
		}
	})
}

// TestCrashGauntletCorruptRecord flips one byte mid-journal (bit rot, bad
// sector): CRC catches it and recovery stops at the last valid prefix.
func TestCrashGauntletCorruptRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("crash gauntlet spawns child daemons")
	}
	runTamperScenario(t, func(t *testing.T, seg string) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("read %s: %v", seg, err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatalf("write back: %v", err)
		}
	})
}
