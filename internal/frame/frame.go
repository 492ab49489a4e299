// Package frame is the one whole-file format of a data directory and the one
// way such a file reaches its final name. Layout (little-endian):
//
//	magic   opening magic; its last byte is the owner's format version
//	u64     n, a number the owner chooses (a sequence, a count)
//	u64     payloadLen
//	payload
//	u32     crc32c(n || payloadLen || payload)
//	magic   closing magic
//
// The rule: a framed file is written whole and replaced atomically, so
// damage to one is never a crash artifact — Decode yields the exact payload
// that was encoded or an error, never part of it. (Journal records are the
// other framing in the tree: a journal's tail legitimately tears mid-append,
// so its reader stops at the last valid record instead.)
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fixed is the framing overhead beyond the two magics: n, payloadLen, crc.
const fixed = 8 + 8 + 4

func checksum(header, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, header), castagnoli, payload)
}

// Encode frames payload and n between the opening magic and the closing one.
func Encode(magic, end string, n uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+fixed+len(payload)+len(end))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, n)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, checksum(buf[len(magic):len(magic)+16], payload))
	return append(buf, end...)
}

// Decode validates a frame produced by Encode with the same magics and
// returns its n and payload (a subslice of data). Any truncation, extension
// or bit flip is an error.
func Decode(magic, end string, data []byte) (n uint64, payload []byte, err error) {
	if len(data) < len(magic)+fixed+len(end) {
		return 0, nil, fmt.Errorf("truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("bad magic")
	}
	if string(data[len(data)-len(end):]) != end {
		return 0, nil, fmt.Errorf("missing end magic")
	}
	body := data[len(magic) : len(data)-len(end)]
	plen := binary.LittleEndian.Uint64(body[8:16])
	if plen != uint64(len(body)-fixed) {
		return 0, nil, fmt.Errorf("length mismatch (%d vs %d)", plen, len(body)-fixed)
	}
	payload = body[16 : len(body)-4]
	if checksum(body[:16], payload) != binary.LittleEndian.Uint32(body[len(body)-4:]) {
		return 0, nil, fmt.Errorf("CRC mismatch")
	}
	return binary.LittleEndian.Uint64(body[:8]), payload, nil
}

// WriteFile durably replaces path with data: written to path+".tmp",
// fsynced, renamed over path, and the directory fsynced. A crash at any
// point leaves the previous file or the new one under the final name, plus
// at worst a stray .tmp no reader opens. beforeRename, when non-nil, runs
// between the temp file's fsync and the rename (the journal's crash seam).
// One writer per path at a time.
func WriteFile(path string, data []byte, beforeRename func()) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if beforeRename != nil {
		beforeRename()
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
