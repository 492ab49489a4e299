package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzSegment returns a three-record segment as Journal.Append writes it and
// the offset just past each record.
func fuzzSegment(t testing.TB) (seg []byte, boundaries []int) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, p := range []string{`{"link_down":[{"a":"x","b":"y"}]}`, "", "third"} {
		if _, err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		off += headerSize + len(p)
		boundaries = append(boundaries, off)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err = os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil || len(seg) != off {
		t.Fatalf("segment is %d bytes, want %d: %v", len(seg), off, err)
	}
	return seg, boundaries
}

// FuzzReplayDir hands the segment scan hostile bytes as a tenant's only
// segment. Whatever they are, ReplayDir must not panic, must deliver strictly
// increasing sequence numbers and account for exactly what it delivered
// (Truncated, Gap and DroppedBytes may say anything consistent with that);
// Open must then repair the directory so that an Append lands after
// everything delivered and a second ReplayDir delivers the same records and
// the new one last, with nothing left to drop.
//
// Seeds: a three-record segment written by Journal.Append, its truncation one
// byte either side of every record boundary and at it, a bit flipped
// mid-file, and the segment with its first record repeated at the end.
// testdata/fuzz holds a snapshot of the same.
func FuzzReplayDir(f *testing.F) {
	seg, boundaries := fuzzSegment(f)
	f.Add(seg)
	for _, b := range boundaries {
		for _, cut := range []int{b - 1, b, b + 1} {
			if cut < len(seg) {
				f.Add(seg[:cut])
			}
		}
	}
	flipped := bytes.Clone(seg)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// Intact records out of order: the first again after the third (the
	// scan delivered it twice before it held sequences to increasing).
	f.Add(slices.Concat(seg, seg[:boundaries[0]]))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		info, err := ReplayDir(dir, 0, func(seq uint64, _ []byte) error {
			if n := len(seqs); n > 0 && seq <= seqs[n-1] {
				t.Fatalf("sequence %d delivered after %d", seq, seqs[n-1])
			}
			seqs = append(seqs, seq)
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		var last uint64
		if len(seqs) > 0 {
			last = seqs[len(seqs)-1]
		}
		if info.Records != len(seqs) || info.LastSeq != last {
			t.Fatalf("info %+v after delivering %d records, the last %d", info, len(seqs), last)
		}
		if !info.Truncated && info.DroppedBytes != 0 || info.Gap {
			t.Fatalf("info %+v: dropped bytes without truncation, or a gap in an only segment", info)
		}

		j, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		payload := []byte("appended after recovery")
		seq, err := j.Append(payload)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if seq <= last {
			t.Fatalf("appended as sequence %d after replaying up to %d", seq, last)
		}
		var again []uint64
		var lastPayload []byte
		info, err = ReplayDir(dir, 0, func(seq uint64, p []byte) error {
			again = append(again, seq)
			lastPayload = bytes.Clone(p)
			return nil
		})
		if err != nil || info.Truncated {
			t.Fatalf("replay after repair: info %+v, err %v", info, err)
		}
		if len(again) != len(seqs)+1 || again[len(seqs)] != seq || !bytes.Equal(lastPayload, payload) {
			t.Fatalf("replay after repair delivered %v (last payload %q); want %v, then %d carrying %q",
				again, lastPayload, seqs, seq, payload)
		}
	})
}
