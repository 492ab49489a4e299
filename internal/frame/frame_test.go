package frame

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const (
	testMagic = "FRAMTST1"
	testEnd   = "FRAMTSTE"
)

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		n, got, err := Decode(testMagic, testEnd, Encode(testMagic, testEnd, 42, payload))
		if err != nil || n != 42 || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes: n=%d len=%d err=%v", len(payload), n, len(got), err)
		}
	}
	if _, _, err := Decode("OTHERMAG", testEnd, Encode(testMagic, testEnd, 1, []byte("p"))); err == nil {
		t.Fatal("a frame decoded under another owner's magic")
	}
}

// TestEveryManglingIsAnError is the frame's whole contract on hostile bytes:
// truncated at every length, extended, or with one bit flipped at every
// offset, a frame is an error — never a panic, never a payload.
func TestEveryManglingIsAnError(t *testing.T) {
	good := Encode(testMagic, testEnd, 7, []byte("a small payload"))
	reject := func(what string, data []byte) {
		t.Helper()
		if n, payload, err := Decode(testMagic, testEnd, data); err == nil || payload != nil || n != 0 {
			t.Fatalf("%s: n=%d payload=%q err=%v, want an error and nothing else", what, n, payload, err)
		}
	}
	for l := 0; l < len(good); l++ {
		reject("truncated", good[:l])
	}
	reject("extended", append(bytes.Clone(good), 0))
	reject("doubled", append(bytes.Clone(good), good...))
	for off := 0; off < len(good); off++ {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(good)
			bad[off] ^= 1 << bit
			reject("bit flip", bad)
		}
	}
}

// TestWriteFileReplaces: the new bytes appear under the final name, no
// temporary is left beside them, and a hook that dies before the rename
// leaves the previous file in force.
func TestWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, want := range []string{"first", "second, longer", "3"} {
		if err := WriteFile(path, []byte(want), nil); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary left behind: %v", err)
		}
	}
	func() {
		defer func() { recover() }()
		WriteFile(path, []byte("never renamed"), func() { panic("crash before rename") })
	}()
	if got, _ := os.ReadFile(path); string(got) != "3" {
		t.Fatalf("a write that died before its rename replaced the file with %q", got)
	}
	if err := WriteFile(filepath.Join(path, "below-a-file"), nil, nil); err == nil {
		t.Fatal("write under a non-directory succeeded")
	}
}
