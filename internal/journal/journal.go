// Package journal is bonsaid's per-tenant durability layer: an append-only
// write-ahead delta log plus an atomically-replaced checkpoint, both living
// in one tenant directory. The discipline is log-then-apply: a delta is
// framed, sequence-numbered and (policy permitting) fsynced to the journal
// before the engine runs it, so the tenant's state is always reconstructible
// as checkpoint + ordered journal tail. Recovery tolerates every crash shape
// a kill -9 can produce — torn final records, half-written checkpoints,
// stale segments left behind by an interrupted truncation — and degrades a
// corrupt record to a detectable gap instead of a panic.
//
// On-disk layout of a journal directory:
//
//	wal-<first-seq>.log    append-only segments of framed records
//	checkpoint             last durable snapshot (one internal/frame file)
//	checkpoint.tmp         in-flight checkpoint; never trusted on load
//
// Record frame (little-endian, written in a single Write so any crash
// leaves a pure prefix):
//
//	u32 payloadLen | u64 seq | u32 crc32c(seq || payload) | payload
//
// Sequence numbers are monotonic across segments and restarts; segment
// files are named by the first sequence they hold, so a checkpoint at seq S
// can delete every segment whose successor starts at or below S+1.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bonsai/internal/faultinject"
)

// SyncPolicy says when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Append returns: an acknowledged delta is
	// durable against power loss. Slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (Options.SyncEvery): at most
	// one window of acknowledged deltas is exposed to power loss. A plain
	// process crash (kill -9) loses nothing — written bytes survive in the
	// page cache.
	SyncInterval
	// SyncNever leaves syncing to the OS writeback. Same kill -9 guarantee
	// as SyncInterval; power loss may take the whole unsynced tail.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses the -fsync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a journal.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB); checkpoints also rotate, so truncation can reclaim
	// everything behind them.
	SegmentBytes int64
}

func (o *Options) defaults() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptName   = "checkpoint"
	ckptTmp    = "checkpoint.tmp"
	headerSize = 4 + 8 + 4 // payloadLen + seq + crc
	// maxRecordBytes bounds a single record; a length prefix beyond it is
	// treated as corruption rather than an allocation request.
	maxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Stats is a point-in-time snapshot of one journal.
type Stats struct {
	// LastSeq is the newest appended sequence (0 before the first append).
	LastSeq uint64 `json:"last_seq"`
	// CheckpointSeq is the sequence the durable checkpoint covers.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// TailRecords counts appended records past the checkpoint — the replay
	// work a recovery would do right now.
	TailRecords uint64 `json:"tail_records"`
	// Appends and Fsyncs count operations over this process's lifetime;
	// Checkpoints counts durable checkpoint replacements.
	Appends     uint64 `json:"appends"`
	Fsyncs      uint64 `json:"fsyncs"`
	Checkpoints uint64 `json:"checkpoints"`
	// SegmentCount and SegmentBytes size the on-disk journal (excluding the
	// checkpoint file).
	SegmentCount int   `json:"segment_count"`
	SegmentBytes int64 `json:"segment_bytes"`
}

// Journal is one tenant's write-ahead log plus checkpoint. Appends and
// checkpoints are safe for concurrent use; a Journal owns its directory.
type Journal struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment
	fSize    int64
	fStart   uint64 // first seq of the active segment
	nextSeq  uint64
	ckptSeq  uint64
	dirty    bool // bytes written since the last fsync
	closed   bool
	buf      []byte
	segBytes int64 // total bytes across sealed segments (not the active one)
	segCount int   // sealed segments

	appends     uint64
	fsyncs      uint64
	checkpoints uint64

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open opens (or creates) the journal directory, repairs a torn tail in the
// newest segment, and positions the writer after the last valid record.
// Records damaged earlier in the log are left for Replay to report — Open
// only needs the append position, which lives in the final segment.
func Open(dir string, opts Options) (*Journal, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts, nextSeq: 1}

	if ck, err := j.Checkpoint(); err == nil && ck != nil {
		j.ckptSeq = ck.Seq
		j.nextSeq = ck.Seq + 1
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, s := range segs {
		if i == len(segs)-1 {
			break
		}
		fi, err := os.Stat(filepath.Join(dir, s.name))
		if err == nil {
			j.segBytes += fi.Size()
		}
		j.segCount++
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, last.name)
		end, lastSeq, _, err := scanSegment(path, 0, nil)
		if err != nil {
			return nil, err
		}
		// Repair: drop any torn/corrupt tail so the next append starts at a
		// clean frame boundary. Bytes past the last valid record are garbage
		// by construction — they were never acknowledged at SyncAlways, and
		// at looser policies the contract is exactly that they may be lost.
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		j.f, j.fSize, j.fStart = f, end, last.start
		if lastSeq >= j.nextSeq {
			j.nextSeq = lastSeq + 1
		}
		// An empty active segment still pins the append position: it was
		// named after the next sequence when it was created, so sequences
		// below its start live in sealed segments we didn't scan.
		if last.start > j.nextSeq {
			j.nextSeq = last.start
		}
	}

	if opts.Sync == SyncInterval {
		j.syncStop = make(chan struct{})
		j.syncDone = make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

// syncLoop flushes dirty appends on the SyncInterval timer.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(j.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.syncStop:
			return
		case <-t.C:
			j.Sync()
		}
	}
}

// Append frames payload under the next sequence number, writes it to the
// active segment, and — under SyncAlways — fsyncs before returning. The
// returned sequence is the record's durable identity; callers must not
// acknowledge the delta to a client before Append returns.
func (j *Journal) Append(payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	seq := j.nextSeq
	if faultinject.Active() {
		faultinject.Fire(faultinject.JournalAppend, strconv.FormatUint(seq, 10))
	}
	if j.f == nil || j.fSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	need := headerSize + len(payload)
	if cap(j.buf) < need {
		j.buf = make([]byte, need)
	}
	b := j.buf[:need]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(b[4:12], seq)
	crc := crc32.Update(0, castagnoli, b[4:12])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(b[12:16], crc)
	copy(b[16:], payload)
	if _, err := j.f.Write(b); err != nil {
		// A short write leaves a torn tail; the next Open repairs it. The
		// in-memory size is best-effort from here, which is fine — rotation
		// thresholds are advisory.
		return 0, err
	}
	j.fSize += int64(need)
	j.nextSeq = seq + 1
	j.appends++
	j.dirty = true
	if j.opts.Sync == SyncAlways {
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes appended bytes to stable storage regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || !j.dirty || j.f == nil {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if faultinject.Active() {
		faultinject.Fire(faultinject.JournalFsync, strconv.FormatUint(j.nextSeq-1, 10))
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	j.fsyncs++
	return nil
}

// rotateLocked seals the active segment and opens a fresh one starting at
// nextSeq. The directory is fsynced so the new file's existence survives a
// crash as soon as its records matter.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if j.dirty {
			if err := j.syncLocked(); err != nil {
				return err
			}
		}
		if err := j.f.Close(); err != nil {
			return err
		}
		j.segBytes += j.fSize
		j.segCount++
		j.f = nil
	}
	name := segName(j.nextSeq)
	f, err := os.OpenFile(filepath.Join(j.dir, name), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.f, j.fSize, j.fStart = f, 0, j.nextSeq
	return nil
}

// LastSeq returns the newest appended sequence (0 before any append).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// CheckpointSeq returns the sequence the durable checkpoint covers.
func (j *Journal) CheckpointSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckptSeq
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Stats{
		LastSeq:       j.nextSeq - 1,
		CheckpointSeq: j.ckptSeq,
		Appends:       j.appends,
		Fsyncs:        j.fsyncs,
		Checkpoints:   j.checkpoints,
		SegmentCount:  j.segCount,
		SegmentBytes:  j.segBytes + j.fSize,
	}
	if j.f != nil {
		s.SegmentCount++
	}
	if s.LastSeq > s.CheckpointSeq {
		s.TailRecords = s.LastSeq - s.CheckpointSeq
	}
	return s
}

// Close flushes and closes the journal. Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	var err error
	if j.f != nil {
		if j.dirty {
			err = j.f.Sync()
		}
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	stop := j.syncStop
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.syncDone
	}
	return err
}

// segName renders the segment filename for a first sequence.
func segName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix)
}

type segInfo struct {
	name  string
	start uint64
}

// listSegments returns the directory's wal segments sorted by start seq.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		start, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // not ours; leave it alone
		}
		segs = append(segs, segInfo{name: name, start: start})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].start < segs[b].start })
	return segs, nil
}

// syncDir fsyncs a directory so entry creation/rename/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// scanSegment walks one segment's records, calling fn (when non-nil) for
// each valid one, and returns the offset just past the last valid record
// plus the last valid sequence seen (0 if none). Invalid framing — short
// header, a length the file cannot hold, CRC mismatch, a sequence not above
// the one before it (after, for the segment's first record) — ends the scan
// at the last valid boundary; the caller decides whether that is a repairable
// torn tail (final segment) or a reportable gap (records known to follow).
func scanSegment(path string, after uint64, fn func(seq uint64, payload []byte) error) (end int64, lastSeq uint64, nrec int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	var off int64
	hdr := make([]byte, headerSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return off, lastSeq, nrec, nil // clean EOF or torn header
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		if plen > maxRecordBytes || int64(plen) > fi.Size()-off-headerSize {
			// Corrupt length or torn payload; either way it sizes no buffer.
			return off, lastSeq, nrec, nil
		}
		seq := binary.LittleEndian.Uint64(hdr[4:12])
		if seq <= after {
			// An intact record out of order (a repeated block, a stale
			// segment's bytes): delivering it would apply a delta twice.
			return off, lastSeq, nrec, nil
		}
		want := binary.LittleEndian.Uint32(hdr[12:16])
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(f, payload); err != nil {
			return off, lastSeq, nrec, nil // torn payload
		}
		crc := crc32.Update(0, castagnoli, hdr[4:12])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != want {
			return off, lastSeq, nrec, nil // corrupt record
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return off, lastSeq, nrec, err
			}
		}
		off += int64(headerSize) + int64(plen)
		lastSeq, after = seq, seq
		nrec++
	}
}
