package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"bonsai/internal/faultinject"
)

// mustOpen opens a journal with SyncNever (tests don't need power-loss
// durability and fsync dominates runtime) unless the test overrides opts.
func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("delta-%03d:%s", i+1, string(bytes.Repeat([]byte{'x'}, i%17))))
		seq, err := j.Append(payload)
		if err != nil {
			t.Fatalf("Append #%d: %v", i+1, err)
		}
		if want := j.LastSeq(); seq != want {
			t.Fatalf("Append returned seq %d, LastSeq %d", seq, want)
		}
	}
}

func collect(t *testing.T, dir string, from uint64) (seqs []uint64, payloads [][]byte, info ReplayInfo) {
	t.Helper()
	info, err := ReplayDir(dir, from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	return seqs, payloads, info
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	appendN(t, j, 25)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seqs, payloads, info := collect(t, dir, 0)
	if len(seqs) != 25 || info.Records != 25 || info.LastSeq != 25 {
		t.Fatalf("replay got %d records (info %+v), want 25", len(seqs), info)
	}
	if info.Truncated || info.Gap {
		t.Fatalf("clean journal reported damage: %+v", info)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
		want := fmt.Sprintf("delta-%03d:%s", i+1, string(bytes.Repeat([]byte{'x'}, i%17)))
		if string(payloads[i]) != want {
			t.Fatalf("payload[%d] = %q, want %q", i, payloads[i], want)
		}
	}

	// Reopen: the writer resumes after the last record.
	j2 := mustOpen(t, dir, Options{Sync: SyncNever})
	defer j2.Close()
	if got := j2.LastSeq(); got != 25 {
		t.Fatalf("reopened LastSeq = %d, want 25", got)
	}
	if seq, err := j2.Append([]byte("after")); err != nil || seq != 26 {
		t.Fatalf("append after reopen: seq=%d err=%v, want 26", seq, err)
	}
}

// TestTornWritePrefixTable is the satellite table test: for every byte-length
// prefix of a valid multi-record journal, recovery must succeed without a
// panic or error and deliver exactly the records that fit entirely inside
// the prefix — then a reopened journal must accept new appends at the next
// sequence after the surviving prefix.
func TestTornWritePrefixTable(t *testing.T) {
	srcDir := t.TempDir()
	j := mustOpen(t, srcDir, Options{Sync: SyncNever})
	const nRecords = 8
	var bounds []int64 // byte offset just past record i (1-based)
	var off int64
	for i := 0; i < nRecords; i++ {
		payload := []byte(fmt.Sprintf("record-%d-%s", i+1, string(bytes.Repeat([]byte{'a' + byte(i)}, 5+i*7))))
		if _, err := j.Append(payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		off += int64(headerSize + len(payload))
		bounds = append(bounds, off)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(srcDir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %d (err %v)", len(segs), err)
	}
	full, err := os.ReadFile(filepath.Join(srcDir, segs[0].name))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if int64(len(full)) != bounds[nRecords-1] {
		t.Fatalf("segment is %d bytes, want %d", len(full), bounds[nRecords-1])
	}

	for cut := 0; cut <= len(full); cut++ {
		wantRecords := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantRecords++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segs[0].name), full[:cut], 0o644); err != nil {
			t.Fatalf("cut=%d: write prefix: %v", cut, err)
		}

		seqs, _, info := collect(t, dir, 0)
		if len(seqs) != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(seqs), wantRecords)
		}
		if info.LastSeq != uint64(wantRecords) {
			t.Fatalf("cut=%d: LastSeq %d, want %d", cut, info.LastSeq, wantRecords)
		}
		tornBytes := int64(cut)
		if wantRecords > 0 {
			tornBytes = int64(cut) - bounds[wantRecords-1]
		}
		if (tornBytes > 0) != info.Truncated {
			t.Fatalf("cut=%d: Truncated=%v with %d torn bytes", cut, info.Truncated, tornBytes)
		}
		if info.Gap {
			t.Fatalf("cut=%d: single-segment torn tail must not report a gap", cut)
		}
		if info.DroppedBytes != tornBytes {
			t.Fatalf("cut=%d: DroppedBytes=%d, want %d", cut, info.DroppedBytes, tornBytes)
		}

		// Open repairs the tail and the next append continues the sequence.
		j2 := mustOpen(t, dir, Options{Sync: SyncNever})
		if got := j2.LastSeq(); got != uint64(wantRecords) {
			t.Fatalf("cut=%d: reopened LastSeq %d, want %d", cut, got, wantRecords)
		}
		seq, err := j2.Append([]byte("post-repair"))
		if err != nil || seq != uint64(wantRecords)+1 {
			t.Fatalf("cut=%d: post-repair append seq=%d err=%v", cut, seq, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		seqs, _, info = collect(t, dir, 0)
		if len(seqs) != wantRecords+1 || info.Truncated {
			t.Fatalf("cut=%d: after repair replay got %d records (info %+v), want %d",
				cut, len(seqs), info, wantRecords+1)
		}
	}
}

// TestCorruptRecordGap flips a byte inside an early record with later
// segments present: replay must stop at the last valid sequence before the
// damage and raise the Gap alarm, because valid history provably exists past
// the stop point.
func TestCorruptRecordGap(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes=1 seals a segment after every record, so each record
	// lands in its own file and the corruption sits before intact segments.
	j := mustOpen(t, dir, Options{Sync: SyncNever, SegmentBytes: 1})
	appendN(t, j, 6)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 6 {
		t.Fatalf("want 6 segments, got %d (err %v)", len(segs), err)
	}

	// Corrupt the payload of record 3 (third segment).
	path := filepath.Join(dir, segs[2].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[headerSize] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	seqs, _, info := collect(t, dir, 0)
	if len(seqs) != 2 || info.LastSeq != 2 {
		t.Fatalf("replay past corruption: got %d records last=%d, want 2", len(seqs), info.LastSeq)
	}
	if !info.Truncated || !info.Gap {
		t.Fatalf("corrupt mid-journal record must report Truncated+Gap, got %+v", info)
	}
	if info.DroppedBytes != int64(len(data)) {
		t.Fatalf("DroppedBytes=%d, want %d", info.DroppedBytes, len(data))
	}
}

// TestReplayStopsAtOutOfOrderRecord: intact records whose sequence does not
// rise — the log's first record written again at its end, or a stale copy of
// the segment under a later name — are damage, not history: replay delivers
// each delta once and reports the rest dropped.
func TestReplayStopsAtOutOfOrderRecord(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	appendN(t, j, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, segName(1))
	seg, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(){
		"first record repeated": func() {
			rec := seg[:headerSize+len("delta-001:")] // appendN's first record
			if err := os.WriteFile(first, append(bytes.Clone(seg), rec...), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"stale segment copy": func() {
			if err := os.WriteFile(first, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName(4)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		damage()
		seqs, _, info := collect(t, dir, 0)
		if !slices.Equal(seqs, []uint64{1, 2, 3}) || !info.Truncated || info.DroppedBytes == 0 {
			t.Fatalf("%s: delivered %v, info %+v; want 1 2 3 and the rest dropped", name, seqs, info)
		}
	}
}

func TestCheckpointRoundTripAndTruncate(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	appendN(t, j, 10)
	state := []byte("network-config-at-10")
	if err := j.WriteCheckpoint(10, state); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	ck, err := j.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if ck.Seq != 10 || !bytes.Equal(ck.Payload, state) {
		t.Fatalf("checkpoint = seq %d payload %q", ck.Seq, ck.Payload)
	}
	// The covered segment is gone; replay past the checkpoint is empty.
	seqs, _, _ := collect(t, dir, ck.Seq)
	if len(seqs) != 0 {
		t.Fatalf("tail after checkpoint: %v, want empty", seqs)
	}
	appendN(t, j, 3) // seqs 11..13
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ck2, err := LoadCheckpoint(dir)
	if err != nil || ck2.Seq != 10 {
		t.Fatalf("LoadCheckpoint: %+v, %v", ck2, err)
	}
	seqs, _, info := collect(t, dir, ck2.Seq)
	if len(seqs) != 3 || seqs[0] != 11 || seqs[2] != 13 || info.Truncated {
		t.Fatalf("tail replay got %v (info %+v), want [11 12 13]", seqs, info)
	}

	// Reopen resumes after the tail, not at the checkpoint.
	j2 := mustOpen(t, dir, Options{Sync: SyncNever})
	defer j2.Close()
	if got := j2.LastSeq(); got != 13 {
		t.Fatalf("reopened LastSeq = %d, want 13", got)
	}
	if got := j2.CheckpointSeq(); got != 10 {
		t.Fatalf("reopened CheckpointSeq = %d, want 10", got)
	}
}

func TestCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	defer j.Close()
	appendN(t, j, 5)
	if err := j.WriteCheckpoint(7, []byte("x")); err == nil {
		t.Fatal("checkpoint beyond last appended seq must fail")
	}
	if err := j.WriteCheckpoint(4, []byte("at-4")); err != nil {
		t.Fatalf("WriteCheckpoint(4): %v", err)
	}
	if err := j.WriteCheckpoint(2, []byte("regress")); err == nil {
		t.Fatal("checkpoint behind the current one must fail")
	}
	// Base snapshot at seq 0 on a fresh journal is allowed.
	dir2 := t.TempDir()
	j2 := mustOpen(t, dir2, Options{Sync: SyncNever})
	defer j2.Close()
	if err := j2.WriteCheckpoint(0, []byte("base")); err != nil {
		t.Fatalf("base checkpoint: %v", err)
	}
}

// TestCheckpointCrashBeforeRename simulates a crash between writing
// checkpoint.tmp and the rename: the previous checkpoint must stay in force
// and the stray tmp file must be ignored (and not break a later checkpoint).
func TestCheckpointCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	appendN(t, j, 4)
	if err := j.WriteCheckpoint(2, []byte("at-2")); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}

	t.Cleanup(faultinject.Reset)
	disarm := faultinject.Arm(faultinject.CheckpointRename, func(string) {
		panic("crash before rename")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected injected panic")
			}
		}()
		j.WriteCheckpoint(4, []byte("at-4"))
	}()
	disarm()
	j.Close()

	if _, err := os.Stat(filepath.Join(dir, ckptTmp)); err != nil {
		t.Fatalf("expected stray checkpoint.tmp after crash: %v", err)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil || ck.Seq != 2 || string(ck.Payload) != "at-2" {
		t.Fatalf("previous checkpoint not in force: %+v, %v", ck, err)
	}
	// Tail replay still covers everything past the surviving checkpoint.
	seqs, _, _ := collect(t, dir, ck.Seq)
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("tail = %v, want [3 4]", seqs)
	}

	// Recovery + a fresh checkpoint succeed despite the stray tmp.
	j2 := mustOpen(t, dir, Options{Sync: SyncNever})
	defer j2.Close()
	if err := j2.WriteCheckpoint(4, []byte("at-4-retry")); err != nil {
		t.Fatalf("checkpoint after crash: %v", err)
	}
	ck, err = LoadCheckpoint(dir)
	if err != nil || ck.Seq != 4 || string(ck.Payload) != "at-4-retry" {
		t.Fatalf("retried checkpoint: %+v, %v", ck, err)
	}
}

func TestCorruptCheckpointIsAnError(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	appendN(t, j, 2)
	if err := j.WriteCheckpoint(2, []byte("good")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	j.Close()

	path := filepath.Join(dir, ckptName)
	data, _ := os.ReadFile(path)
	data[len(data)-12] ^= 0x01 // inside the CRC/trailer region
	os.WriteFile(path, data, 0o644)
	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint must fail validation, not load")
	}

	// Missing checkpoint is the distinct, benign case.
	os.Remove(path)
	if _, err := LoadCheckpoint(dir); err != ErrNoCheckpoint {
		t.Fatalf("missing checkpoint: err=%v, want ErrNoCheckpoint", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	appendN(t, j, 3)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if j.Stats().Fsyncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestConcurrentAppendCheckpointReplay runs appenders, a checkpointer and a
// reader together (the -race half of the satellite test) and then verifies
// the directory recovers to a contiguous history.
func TestConcurrentAppendCheckpointReplay(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever, SegmentBytes: 4 << 10})

	const total = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // appender
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := j.Append([]byte(fmt.Sprintf("concurrent-%d", i))); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if seq := j.LastSeq(); seq > 0 {
				if err := j.WriteCheckpoint(seq, []byte(fmt.Sprintf("state-%d", seq))); err != nil {
					t.Errorf("WriteCheckpoint(%d): %v", seq, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = j.Stats()
			if _, err := j.Replay(j.CheckpointSeq(), func(uint64, []byte) error { return nil }); err != nil {
				t.Errorf("Replay: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for the appender and for at least one checkpoint, then stop the
	// background loops: a checkpointer not yet scheduled when the last
	// append lands would otherwise see stop first and write nothing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j.LastSeq() < total || j.CheckpointSeq() == 0 {
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("appender or checkpointer did not finish")
	}
	close(stop)
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recover: checkpoint seq + tail must cover exactly 1..total.
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	seqs, _, info := collect(t, dir, ck.Seq)
	if info.Truncated || info.Gap {
		t.Fatalf("damage after clean close: %+v", info)
	}
	want := ck.Seq + 1
	for _, s := range seqs {
		if s != want {
			t.Fatalf("tail not contiguous: got %d, want %d", s, want)
		}
		want++
	}
	if want != total+1 {
		t.Fatalf("checkpoint %d + %d tail records covers to %d, want %d", ck.Seq, len(seqs), want-1, total)
	}
}
