package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"bonsai/internal/faultinject"
	"bonsai/internal/frame"
)

// The checkpoint is one frame (internal/frame) holding the tenant's
// canonical network text, with the sequence it is the state at as the
// frame's number. A checkpoint missing its closing magic or failing its CRC
// is never trusted. The file only ever appears under its final name via
// rename, so a crash leaves either the previous complete checkpoint or a
// stray checkpoint.tmp that load ignores.
const (
	ckptMagic    = "BONSCKP1"
	ckptEndMagic = "BONSCKPE"
)

// ErrNoCheckpoint reports that the directory holds no usable checkpoint.
var ErrNoCheckpoint = errors.New("journal: no checkpoint")

// Checkpoint is a loaded snapshot: the tenant state at sequence Seq.
type Checkpoint struct {
	Seq     uint64
	Payload []byte
}

// Checkpoint loads and validates the durable checkpoint, returning
// (nil, ErrNoCheckpoint) when none exists and an error when one exists but
// fails validation (half-written files never reach the final name, so a bad
// checkpoint file means real corruption, not a crash artifact).
func (j *Journal) Checkpoint() (*Checkpoint, error) {
	return LoadCheckpoint(j.dir)
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	seq, payload, err := frame.Decode(ckptMagic, ckptEndMagic, data)
	if err != nil {
		return nil, fmt.Errorf("journal: checkpoint: %w", err)
	}
	return &Checkpoint{Seq: seq, Payload: payload}, nil
}

// WriteCheckpoint durably replaces the checkpoint with payload-at-seq, then
// truncates the journal behind it: the active segment is sealed first so
// every record at or below seq lives in a fully-covered old segment, the
// checkpoint is written to a temp file, fsynced and renamed into place, and
// only then are the covered segments deleted. A crash at any point leaves a
// recoverable directory — at worst the previous checkpoint with a longer
// tail, or the new checkpoint with stale segments that replay skips by
// sequence.
func (j *Journal) WriteCheckpoint(seq uint64, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if seq < j.ckptSeq {
		return fmt.Errorf("journal: checkpoint seq %d behind current %d", seq, j.ckptSeq)
	}
	// seq must name an appended record (or 0 for a base snapshot).
	if seq != 0 && seq >= j.nextSeq {
		return fmt.Errorf("journal: checkpoint seq %d beyond last appended %d", seq, j.nextSeq-1)
	}

	// Seal the active segment so truncation below can reason per-file.
	if j.f != nil && j.fSize > 0 {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}

	err := frame.WriteFile(filepath.Join(j.dir, ckptName), frame.Encode(ckptMagic, ckptEndMagic, seq, payload), func() {
		if faultinject.Active() {
			faultinject.Fire(faultinject.CheckpointRename, strconv.FormatUint(seq, 10))
		}
	})
	if err != nil {
		return err
	}
	j.ckptSeq = seq
	j.checkpoints++
	j.truncateLocked(seq)
	return nil
}

// truncateLocked deletes sealed segments fully covered by a checkpoint at
// seq: a segment is reclaimable when its successor starts at or below
// seq+1, i.e. every record it holds is at or below seq. Deletion failures
// are ignored — stale segments cost disk, not correctness, and the next
// checkpoint retries.
func (j *Journal) truncateLocked(seq uint64) {
	segs, err := listSegments(j.dir)
	if err != nil {
		return
	}
	for i, s := range segs {
		if j.f != nil && s.start == j.fStart {
			continue // never the active segment
		}
		if i+1 >= len(segs) || segs[i+1].start > seq+1 {
			continue
		}
		os.Remove(filepath.Join(j.dir, s.name))
	}
	// Recompute sealed bytes from what's left rather than tracking deltas.
	j.segBytes = 0
	j.segCount = 0
	segs, _ = listSegments(j.dir)
	for _, s := range segs {
		if j.f != nil && s.start == j.fStart {
			continue
		}
		if fi, err := os.Stat(filepath.Join(j.dir, s.name)); err == nil {
			j.segBytes += fi.Size()
			j.segCount++
		}
	}
	syncDir(j.dir)
}
