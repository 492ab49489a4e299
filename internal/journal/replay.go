package journal

import (
	"os"
	"path/filepath"
)

// ReplayInfo summarises one recovery scan.
type ReplayInfo struct {
	// Records counts the records delivered to fn; LastSeq is the newest of
	// them (0 if none).
	Records int    `json:"records"`
	LastSeq uint64 `json:"last_seq"`
	// Truncated reports that the scan stopped before the physical end of a
	// segment: a torn final record (the benign kill -9 shape), a corrupt
	// one, or an intact one whose sequence does not rise. Gap additionally reports that valid data is known to exist past
	// the stop point — a corrupt record with intact records after it, or a
	// whole unreadable segment followed by a later one — so the recovered
	// prefix provably misses history. Gap is the soundness alarm; Truncated
	// alone is routine.
	Truncated bool `json:"truncated,omitempty"`
	Gap       bool `json:"gap,omitempty"`
	// DroppedBytes counts segment bytes past the last valid record.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
}

// Replay streams every valid record with seq > fromSeq, in sequence order,
// to fn. It never fails on damaged data: a torn or corrupt record ends the
// scan at the last valid sequence and the damage is reported in ReplayInfo
// (Gap when later records provably exist). fn returning an error aborts the
// replay and surfaces that error.
func (j *Journal) Replay(fromSeq uint64, fn func(seq uint64, payload []byte) error) (ReplayInfo, error) {
	// Appends write straight to the segment file (no userspace buffer), so
	// the scan sees them regardless of fsync policy.
	return replayDir(j.dir, fromSeq, fn)
}

// ReplayDir is Replay over a directory no live Journal owns — the recovery
// harness's read-only view of a dead daemon's data.
func ReplayDir(dir string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (ReplayInfo, error) {
	return replayDir(dir, fromSeq, fn)
}

func replayDir(dir string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (ReplayInfo, error) {
	var info ReplayInfo
	segs, err := listSegments(dir)
	if err != nil {
		return info, err
	}
	var after uint64 // the newest valid sequence of the segments scanned so far
	for i, s := range segs {
		path := filepath.Join(dir, s.name)
		fi, statErr := os.Stat(path)
		if os.IsNotExist(statErr) {
			// Reclaimed by a concurrent checkpoint between listing and open;
			// everything it held is covered by that checkpoint.
			continue
		}
		var size int64
		if statErr == nil {
			size = fi.Size()
		}
		wrapped := func(seq uint64, payload []byte) error {
			if seq <= fromSeq {
				return nil
			}
			if err := fn(seq, payload); err != nil {
				return err
			}
			info.Records++
			info.LastSeq = seq
			return nil
		}
		end, last, _, err := scanSegment(path, after, wrapped)
		if os.IsNotExist(err) {
			continue // reclaimed between stat and open; see above
		}
		if err != nil {
			return info, err // fn's error, or the segment is unreadable
		}
		after = max(after, last)
		if end < size {
			info.Truncated = true
			info.DroppedBytes += size - end
			if i < len(segs)-1 {
				// Valid records live in later segments; the prefix we can
				// recover provably misses history.
				info.Gap = true
			}
			// Stop at the first damage: replaying later segments would apply
			// deltas out of order across the hole.
			return info, nil
		}
	}
	return info, nil
}

// LoadCheckpoint reads the checkpoint from a directory no live Journal
// owns. Returns ErrNoCheckpoint when absent.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptName))
	if os.IsNotExist(err) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}
