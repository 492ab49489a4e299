package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointGoldenBytes holds the checkpoint's on-disk bytes to the
// layout every data directory written so far uses — spelled out here by
// hand, CRC included, not through the frame package — so a directory sealed
// by an older daemon still recovers and one sealed by this one is readable
// by it.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden := bytes.Join([][]byte{
		[]byte("BONSCKP1"),
		{3, 0, 0, 0, 0, 0, 0, 0},  // u64 seq
		{10, 0, 0, 0, 0, 0, 0, 0}, // u64 payload length
		[]byte("router r1\n"),
		{0x59, 0x2b, 0x4f, 0xcc}, // u32 crc32c(seq || length || payload)
		[]byte("BONSCKPE"),
	}, nil)

	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncNever})
	appendN(t, j, 3)
	if err := j.WriteCheckpoint(3, []byte("router r1\n")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, ckptName)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("checkpoint bytes changed (err %v):\n got %x\nwant %x", err, got, golden)
	}

	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil || ck.Seq != 3 || string(ck.Payload) != "router r1\n" {
		t.Fatalf("golden checkpoint does not load: %+v, %v", ck, err)
	}
}
