// The persisted relation store: a versioned, CRC-framed on-disk image of
// the Builder's warm state — the abstraction store's completed entries and
// a policy compiler's canonical edge-relation cache — so a restarted
// process answers its first queries from disk instead of re-running
// refinement over every fingerprint group.
//
// The format follows the write-ahead journal's framing discipline
// (internal/journal): a fixed magic, then length-and-CRC-framed records,
// then a trailer record whose presence proves the file was written to
// completion. Loading is all-or-nothing: every record is parsed and
// validated into private staging first, and only a fully consistent file
// mutates the Builder — a truncated or bit-flipped file is rejected with an
// error and the store is left exactly as it was (a cold start, since the
// store is a cache and never the source of truth).
//
// Two identities gate a load. The config hash (SHA-256 of the canonical
// config text) ties the file to the exact network it was saved from: any
// drift — including a crash after the relation store was written but before
// the journal sealed — fails the hash and degrades to a cold start.
// Abstraction entries are keyed by a member destination prefix rather than
// by the store's fingerprint string, because fingerprints embed intern-table
// IDs assigned in arrival order and are therefore not stable across
// processes; the prefix re-derives the fingerprint deterministically in the
// loading Builder. BDD relations are keyed by (router-name-resolved policy
// namespaces, map names, session kind, prefix-fingerprint) over one shared
// exported node array; refs below the canonical seed prefix are stable by
// construction (internal/bdd), and Import re-canonicalises the rest.
package build

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"bonsai/internal/bdd"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// relStoreMagic opens every relation-store file; the trailing byte is the
// format version and bumps on incompatible changes.
const relStoreMagic = "BRELST\x00\x01"

// Record types.
const (
	recMeta    = 1    // format guard: config hash + topology shape
	recClass   = 2    // one completed abstraction-store entry
	recRels    = 3    // a compiler's edge-relation cache over one node array
	recTrailer = 0x7f // completion proof: record count
)

var relCRC = crc32.MakeTable(crc32.Castagnoli)

// ---------------------------------------------------------------------------
// Primitive encoding. Records are byte slices built with appenders and read
// with a cursor that latches the first error; all integers are uvarint
// except the fixed-width framing and the raw BDD node array.

type relDec struct {
	b   []byte
	off int
	err error
}

func (d *relDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("build: relation store: "+format, args...)
	}
}

func (d *relDec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and bounds it by the bytes remaining (each
// element costs at least min bytes), so a corrupt length cannot drive an
// allocation far beyond the file size.
func (d *relDec) count(min int) int {
	v := d.uv()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64((len(d.b)-d.off)/min+1) {
		d.fail("implausible collection length %d at offset %d", v, d.off)
		return 0
	}
	return int(v)
}

func (d *relDec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *relDec) boolv() bool { return d.u8() != 0 }

func (d *relDec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.b) {
		d.fail("truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *relDec) u32s() []uint32 {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	if d.off+4*n > len(d.b) {
		d.fail("truncated u32 array at offset %d", d.off)
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.b[d.off:])
		d.off += 4
	}
	return out
}

func (d *relDec) bits() []bool {
	v := d.uv()
	if d.err != nil {
		return nil
	}
	// Bitsets pack 8 elements per byte, so the generic count() bound (one
	// byte per element) is 8x too strict here; bound against bits remaining.
	if v > uint64(len(d.b)-d.off)*8 {
		d.fail("implausible bitset length %d at offset %d", v, d.off)
		return nil
	}
	n := int(v)
	nb := (n + 7) / 8
	if d.off+nb > len(d.b) {
		d.fail("truncated bitset at offset %d", d.off)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.b[d.off+i/8]&(1<<(i%8)) != 0
	}
	d.off += nb
	return out
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBits(b []byte, bs []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(bs)))
	var cur byte
	for i, v := range bs {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(bs)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

func appendU32s(b []byte, vs []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// ---------------------------------------------------------------------------
// Framing.

func writeRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, relCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// nextRecord slices the record at off, verifying its frame CRC. A short or
// corrupt frame is an error: unlike the journal (whose tail legitimately
// tears mid-append), the relation store is written atomically, so any damage
// means the file must be rejected whole.
func nextRecord(b []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(b) {
		return nil, 0, fmt.Errorf("build: relation store: truncated frame at offset %d", off)
	}
	n := binary.LittleEndian.Uint32(b[off:])
	crc := binary.LittleEndian.Uint32(b[off+4:])
	if off+8+int(n) > len(b) {
		return nil, 0, fmt.Errorf("build: relation store: truncated record at offset %d", off)
	}
	payload = b[off+8 : off+8+int(n)]
	if crc32.Checksum(payload, relCRC) != crc {
		return nil, 0, fmt.Errorf("build: relation store: CRC mismatch at offset %d", off)
	}
	return payload, off + 8 + int(n), nil
}

// ConfigHash returns the identity a relation store is bound to: the SHA-256
// of the network's canonical config text.
func ConfigHash(n *config.Network) [32]byte {
	return sha256.Sum256([]byte(config.PrintString(n)))
}

// ---------------------------------------------------------------------------
// Save.

// envName maps each router's policy namespace to its router name so relation
// cache keys (which hold namespace pointers) serialise by name; the first
// router wins on a shared namespace, which is stable because router order is.
func (b *Builder) envNames() map[*policy.Env]string {
	m := make(map[*policy.Env]string, len(b.routers))
	for i, r := range b.routers {
		if r.Env != nil {
			if _, ok := m[r.Env]; !ok {
				m[r.Env] = b.G.Name(topo.NodeID(i))
			}
		}
	}
	return m
}

// MergeRelationCaches copies every relation cached on src into dst (keys dst
// already holds win), translating the BDD subgraphs between the two managers
// through export/import. Both compilers must come from this Builder and
// share a variable universe; the caller owns both. Synthetic redistribution
// composites are per-compiler handles and are not merged — they rebuild
// lazily and cheaply.
func (b *Builder) MergeRelationCaches(dst, src *policy.Compiler) error {
	if dst == src {
		return nil
	}
	if !slices.Equal(dst.Universe(), src.Universe()) {
		return fmt.Errorf("build: merge relation caches: universe mismatch")
	}
	ccs := b.cacheFor(src)
	if len(ccs.rels) == 0 {
		return nil
	}
	keys := make([]relKey, 0, len(ccs.rels))
	roots := make([]bdd.Node, 0, len(ccs.rels))
	for k, ent := range ccs.rels {
		keys = append(keys, k)
		roots = append(roots, ent.rel)
	}
	nodes, refs := src.M.Export(roots)
	moved, err := dst.M.Import(nodes, refs)
	if err != nil {
		return err
	}
	ccd := b.cacheFor(dst)
	for i, k := range keys {
		if _, ok := ccd.rels[k]; !ok {
			ccd.rels[k] = relEntry{rel: moved[i], drops: ccs.rels[k].drops}
		}
	}
	return nil
}

// SaveRelationStore writes the Builder's warm state to w: every completed
// abstraction-store entry, plus (when comp is non-nil) comp's canonical
// edge-relation cache. comp must belong to this Builder and to the calling
// goroutine.
func (b *Builder) SaveRelationStore(w io.Writer, comp *policy.Compiler) error {
	if _, err := io.WriteString(w, relStoreMagic); err != nil {
		return err
	}
	records := 0

	// Meta: binds the file to this exact network and topology shape.
	hash := ConfigHash(b.Cfg)
	meta := make([]byte, 0, 64)
	meta = append(meta, recMeta)
	meta = append(meta, hash[:]...)
	meta = binary.AppendUvarint(meta, uint64(b.G.NumNodes()))
	meta = binary.AppendUvarint(meta, uint64(len(b.G.Edges())))
	if err := writeRecord(w, meta); err != nil {
		return err
	}
	records++

	// Snapshot completed entries and a prefix naming each, under the store
	// and intern locks respectively; entries are immutable once done, so the
	// encoding below runs lock-free.
	st := &b.store
	st.mu.Lock()
	entries := make([]*absEntry, 0, len(st.entries))
	for _, e := range st.entries {
		if e.done && e.err == nil && e.abs != nil {
			entries = append(entries, e)
		}
	}
	st.mu.Unlock()
	prefixOf := make(map[string]string, len(entries))
	b.internMu.Lock()
	for pfx, fp := range b.fpByPrefix {
		if _, ok := prefixOf[fp]; !ok {
			prefixOf[fp] = pfx.String()
		}
	}
	b.internMu.Unlock()
	// Deterministic output order (map iteration above is not).
	slices.SortFunc(entries, func(a, c *absEntry) int {
		return cmpStr(prefixOf[a.fp], prefixOf[c.fp])
	})
	for _, e := range entries {
		pfx, ok := prefixOf[e.fp]
		if !ok {
			continue // unreachable: every completed entry signatured a prefix
		}
		if err := writeRecord(w, encodeClassRecord(e, pfx)); err != nil {
			return err
		}
		records++
	}

	if comp != nil {
		payload, err := b.encodeRelsRecord(comp)
		if err != nil {
			return err
		}
		if payload != nil {
			if err := writeRecord(w, payload); err != nil {
				return err
			}
			records++
		}
	}

	trailer := []byte{recTrailer}
	trailer = binary.AppendUvarint(trailer, uint64(records))
	return writeRecord(w, trailer)
}

func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// encodeClassRecord renders one completed store entry. Entries are named by
// a member prefix, not their fingerprint: fingerprints embed intern IDs
// assigned in arrival order, so only the prefix re-derives the same identity
// in another process.
func encodeClassRecord(e *absEntry, prefix string) []byte {
	a := e.abs
	p := make([]byte, 0, 256)
	p = append(p, recClass)
	p = appendStr(p, prefix)
	p = appendBool(p, e.pinned)
	p = binary.AppendUvarint(p, uint64(len(e.prefs)))
	for _, v := range e.prefs {
		p = binary.AppendUvarint(p, uint64(v))
	}
	p = appendBits(p, e.live)

	p = binary.AppendUvarint(p, uint64(a.Dest))
	p = binary.AppendUvarint(p, uint64(a.AbsDest))
	p = binary.AppendUvarint(p, uint64(a.Iterations))
	p = binary.AppendUvarint(p, uint64(a.ColorSplits))
	p = binary.AppendUvarint(p, uint64(len(a.Groups)))
	for _, g := range a.Groups {
		p = binary.AppendUvarint(p, uint64(len(g)))
		for _, u := range g {
			p = binary.AppendUvarint(p, uint64(u))
		}
	}
	p = binary.AppendUvarint(p, uint64(len(a.F)))
	for _, f := range a.F {
		p = binary.AppendUvarint(p, uint64(f))
	}
	p = binary.AppendUvarint(p, uint64(len(a.Copies)))
	for _, c := range a.Copies {
		p = binary.AppendUvarint(p, uint64(len(c)))
		for _, u := range c {
			p = binary.AppendUvarint(p, uint64(u))
		}
	}
	// Abstract graph: names, then its directed edge list.
	p = binary.AppendUvarint(p, uint64(a.AbsG.NumNodes()))
	for _, u := range a.AbsG.Nodes() {
		p = appendStr(p, a.AbsG.Name(u))
	}
	absEdges := a.AbsG.Edges()
	p = binary.AppendUvarint(p, uint64(len(absEdges)))
	for _, e := range absEdges {
		p = binary.AppendUvarint(p, uint64(e.U))
		p = binary.AppendUvarint(p, uint64(e.V))
	}
	p = binary.AppendUvarint(p, uint64(len(a.RepEdge)))
	reps := make([]topo.Edge, 0, len(a.RepEdge))
	for ae := range a.RepEdge {
		reps = append(reps, ae)
	}
	slices.SortFunc(reps, func(x, y topo.Edge) int {
		if x.U != y.U {
			return int(x.U) - int(y.U)
		}
		return int(x.V) - int(y.V)
	})
	for _, ae := range reps {
		ce := a.RepEdge[ae]
		p = binary.AppendUvarint(p, uint64(ae.U))
		p = binary.AppendUvarint(p, uint64(ae.V))
		p = binary.AppendUvarint(p, uint64(ce.U))
		p = binary.AppendUvarint(p, uint64(ce.V))
	}
	// abs.Live is the same vector as the entry's in every producing path;
	// persist a separate copy only if that ever diverges.
	shared := slices.Equal(a.Live, e.live)
	p = appendBool(p, shared)
	if !shared {
		p = appendBits(p, a.Live)
	}
	return p
}

// encodeRelsRecord renders comp's edge-relation cache: the cache keys with
// policy namespaces resolved to router names, and every relation exported
// over one shared node array. Returns nil when the cache is empty.
func (b *Builder) encodeRelsRecord(comp *policy.Compiler) ([]byte, error) {
	cc := b.cacheFor(comp)
	if len(cc.rels) == 0 {
		return nil, nil
	}
	names := b.envNames()
	type flatKey struct {
		expRouter, expMap, impRouter, impMap string
		ibgp                                 bool
		fp                                   string
		rel                                  bdd.Node
		drops                                bool
	}
	flat := make([]flatKey, 0, len(cc.rels))
	for k, ent := range cc.rels {
		fk := flatKey{
			expMap: k.expMap, impMap: k.impMap,
			ibgp: k.ibgp, fp: k.fp, rel: ent.rel, drops: ent.drops,
		}
		if k.expEnv != nil {
			n, ok := names[k.expEnv]
			if !ok {
				continue // foreign namespace; nothing to resolve it at load
			}
			fk.expRouter = n
		}
		if k.impEnv != nil {
			n, ok := names[k.impEnv]
			if !ok {
				continue
			}
			fk.impRouter = n
		}
		flat = append(flat, fk)
	}
	slices.SortFunc(flat, func(a, c flatKey) int {
		if v := cmpStr(a.expRouter, c.expRouter); v != 0 {
			return v
		}
		if v := cmpStr(a.expMap, c.expMap); v != 0 {
			return v
		}
		if v := cmpStr(a.impRouter, c.impRouter); v != 0 {
			return v
		}
		if v := cmpStr(a.impMap, c.impMap); v != 0 {
			return v
		}
		if a.ibgp != c.ibgp {
			if a.ibgp {
				return 1
			}
			return -1
		}
		return cmpStr(a.fp, c.fp)
	})
	roots := make([]bdd.Node, len(flat))
	for i := range flat {
		roots[i] = flat[i].rel
	}
	nodes, refs := comp.M.Export(roots)

	p := make([]byte, 0, 64+4*len(nodes)+32*len(flat))
	p = append(p, recRels)
	p = appendBool(p, slices.Equal(comp.Universe(), b.erasedUniverse))
	p = binary.AppendUvarint(p, uint64(compilerNumVars(comp)))
	p = appendU32s(p, nodes)
	p = binary.AppendUvarint(p, uint64(len(flat)))
	for i, fk := range flat {
		p = appendStr(p, fk.expRouter)
		p = appendStr(p, fk.expMap)
		p = appendStr(p, fk.impRouter)
		p = appendStr(p, fk.impMap)
		p = appendBool(p, fk.ibgp)
		p = appendStr(p, fk.fp)
		p = appendBool(p, fk.drops)
		p = binary.LittleEndian.AppendUint32(p, refs[i])
	}
	return p, nil
}

// compilerNumVars derives the BDD variable count of a compiler's manager
// from its universe (the layout of internal/policy: in/out pairs per
// community and LP bit, plus the drop flag).
func compilerNumVars(comp *policy.Compiler) int {
	return 2*len(comp.Universe()) + 2*policy.LPBits + 1
}

// SaveRelationStoreFile writes the relation store to path with the journal's
// atomic-replace discipline: temp file in the same directory, fsync, rename
// over the target, fsync the directory. A crash mid-save leaves either the
// old file or none — never a torn one.
func (b *Builder) SaveRelationStoreFile(path string, comp *policy.Compiler) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".relstore-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = b.SaveRelationStore(tmp, comp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Load.

// stagedClass is one parsed-and-validated class record, not yet installed.
type stagedClass struct {
	prefix string
	pinned bool
	prefs  []int
	live   []bool
	abs    *core.Abstraction
}

// stagedRels is the parsed relation record.
type stagedRels struct {
	erased bool
	nvars  int
	nodes  []uint32
	keys   []relKey
	drops  []bool
	refs   []uint32
}

// LoadRelationStore parses a relation store from r and, if every record
// validates against this Builder, installs the abstractions into the store
// and the relations into comp's edge-relation cache (comp may be nil to
// load abstractions only). It returns the number of abstraction entries
// installed. On any error nothing is installed: the file either loads whole
// or is rejected whole.
func (b *Builder) LoadRelationStore(r io.Reader, comp *policy.Compiler) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	if len(data) < len(relStoreMagic) || string(data[:len(relStoreMagic)]) != relStoreMagic {
		return 0, fmt.Errorf("build: relation store: bad magic")
	}

	var (
		sawMeta    bool
		classes    []*stagedClass
		rels       *stagedRels
		records    int
		sawTrailer bool
	)
	off := len(relStoreMagic)
	for off < len(data) {
		payload, next, err := nextRecord(data, off)
		if err != nil {
			return 0, err
		}
		off = next
		if len(payload) == 0 {
			return 0, fmt.Errorf("build: relation store: empty record")
		}
		d := &relDec{b: payload, off: 1}
		switch payload[0] {
		case recMeta:
			if sawMeta {
				return 0, fmt.Errorf("build: relation store: duplicate meta record")
			}
			sawMeta = true
			if err := b.checkMeta(d); err != nil {
				return 0, err
			}
			records++
		case recClass:
			if !sawMeta {
				return 0, fmt.Errorf("build: relation store: class record before meta")
			}
			sc, err := b.decodeClassRecord(d)
			if err != nil {
				return 0, err
			}
			classes = append(classes, sc)
			records++
		case recRels:
			if !sawMeta {
				return 0, fmt.Errorf("build: relation store: relations record before meta")
			}
			if rels != nil {
				return 0, fmt.Errorf("build: relation store: duplicate relations record")
			}
			rels, err = b.decodeRelsRecord(d)
			if err != nil {
				return 0, err
			}
			records++
		case recTrailer:
			n := d.uv()
			if d.err != nil {
				return 0, d.err
			}
			if n != uint64(records) {
				return 0, fmt.Errorf("build: relation store: trailer count %d != %d records", n, records)
			}
			if off != len(data) {
				return 0, fmt.Errorf("build: relation store: %d trailing bytes after trailer", len(data)-off)
			}
			sawTrailer = true
		default:
			return 0, fmt.Errorf("build: relation store: unknown record type %#x", payload[0])
		}
	}
	if !sawTrailer {
		return 0, fmt.Errorf("build: relation store: missing trailer (truncated save)")
	}
	if !sawMeta {
		return 0, fmt.Errorf("build: relation store: missing meta record")
	}

	// Resolve every class record against this Builder's own class machinery
	// before touching shared state: compute the local signature (and thereby
	// the local fingerprint) per staged prefix, and pre-resolve relation keys
	// against the live config. Signature computation memoizes into
	// fpByPrefix/fpIntern, which is harmless — those memos are deterministic
	// and Builder-lifetime regardless of how the load ends.
	type install struct {
		sc  *stagedClass
		sig *classSig
	}
	installs := make([]install, 0, len(classes))
	seen := make(map[string]bool, len(classes))
	for _, sc := range classes {
		// A staged prefix must name a class exactly; the class that merely
		// owns its address is a different class.
		cls, err := b.ClassFor(sc.prefix)
		if err != nil || cls.Prefix.String() != sc.prefix {
			return 0, fmt.Errorf("build: relation store: class %q: no such destination class", sc.prefix)
		}
		sig, err := b.classSignature(cls)
		if err != nil {
			return 0, fmt.Errorf("build: relation store: class %q: %w", sc.prefix, err)
		}
		if sig.dest != sc.abs.Dest {
			return 0, fmt.Errorf("build: relation store: class %q: destination mismatch", sc.prefix)
		}
		if seen[sig.fp] {
			return 0, fmt.Errorf("build: relation store: class %q: duplicate fingerprint", sc.prefix)
		}
		seen[sig.fp] = true
		if sc.pinned {
			// Transport seeds serve concurrent candidate scans; their labels
			// and colors must be computed while the signature is still
			// private to this goroutine.
			b.ensureLabels(sig)
			b.ensureColors(sig)
		}
		installs = append(installs, install{sc: sc, sig: sig})
	}
	var relRoots []bdd.Node
	if rels != nil && comp != nil {
		if rels.nvars != compilerNumVars(comp) {
			return 0, fmt.Errorf("build: relation store: relations over %d BDD variables, compiler has %d",
				rels.nvars, compilerNumVars(comp))
		}
		if rels.erased != slices.Equal(comp.Universe(), b.erasedUniverse) {
			return 0, fmt.Errorf("build: relation store: relations universe mismatch")
		}
		relRoots, err = comp.M.Import(rels.nodes, rels.refs)
		if err != nil {
			return 0, err
		}
	}

	// Everything validated; install. The store lock is taken per entry, as
	// Compress would.
	installed := 0
	st := &b.store
	for _, in := range installs {
		sc, sig := in.sc, in.sig
		sc.abs.G = b.G
		ready := make(chan struct{})
		close(ready)
		e := &absEntry{
			ready: ready,
			abs:   sc.abs,
			fp:    sig.fp,
			sig:   sig,
			live:  sc.live,
			prefs: sc.prefs,
			done:  true,
			src:   ProvCached,
		}
		st.mu.Lock()
		if _, exists := st.entries[sig.fp]; exists {
			st.mu.Unlock()
			continue // already warm (load raced a query, or was run twice)
		}
		st.entries[sig.fp] = e
		if sc.pinned && sc.abs.ColorSplits == 0 {
			e.pinned = true
			st.isoIndex[sig.histo] = append(st.isoIndex[sig.histo], e)
		}
		st.account(e)
		st.evict()
		st.mu.Unlock()
		installed++
	}
	if rels != nil && comp != nil {
		cc := b.cacheFor(comp)
		for i, k := range rels.keys {
			if _, ok := cc.rels[k]; !ok {
				cc.rels[k] = relEntry{rel: relRoots[i], drops: rels.drops[i]}
			}
		}
	}
	return installed, nil
}

// LoadRelationStoreFile loads the relation store at path; see
// LoadRelationStore.
func (b *Builder) LoadRelationStoreFile(path string, comp *policy.Compiler) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return b.LoadRelationStore(f, comp)
}

// checkMeta validates the meta record against this Builder's network.
func (b *Builder) checkMeta(d *relDec) error {
	if d.off+32 > len(d.b) {
		return fmt.Errorf("build: relation store: truncated meta record")
	}
	var hash [32]byte
	copy(hash[:], d.b[d.off:])
	d.off += 32
	nodes := d.uv()
	edges := d.uv()
	if d.err != nil {
		return d.err
	}
	if hash != ConfigHash(b.Cfg) {
		return fmt.Errorf("build: relation store: config hash mismatch (saved from a different network)")
	}
	if nodes != uint64(b.G.NumNodes()) || edges != uint64(len(b.G.Edges())) {
		return fmt.Errorf("build: relation store: topology shape mismatch")
	}
	return nil
}

// decodeClassRecord parses and structurally validates one class record.
func (b *Builder) decodeClassRecord(d *relDec) (*stagedClass, error) {
	numNodes := b.G.NumNodes()
	numEdges := len(b.G.Edges())

	sc := &stagedClass{}
	sc.prefix = d.str()
	sc.pinned = d.boolv()
	nPrefs := d.count(1)
	sc.prefs = make([]int, nPrefs)
	for i := range sc.prefs {
		sc.prefs[i] = int(d.uv())
	}
	sc.live = d.bits()

	a := &core.Abstraction{}
	a.Dest = topo.NodeID(d.uv())
	a.AbsDest = topo.NodeID(d.uv())
	a.Iterations = int(d.uv())
	a.ColorSplits = int(d.uv())
	nGroups := d.count(1)
	a.Groups = make([][]topo.NodeID, nGroups)
	for i := range a.Groups {
		g := make([]topo.NodeID, d.count(1))
		for j := range g {
			g[j] = topo.NodeID(d.uv())
		}
		a.Groups[i] = g
	}
	nF := d.count(1)
	a.F = make([]int, nF)
	for i := range a.F {
		a.F[i] = int(d.uv())
	}
	nCopies := d.count(1)
	a.Copies = make([][]topo.NodeID, nCopies)
	for i := range a.Copies {
		c := make([]topo.NodeID, d.count(1))
		for j := range c {
			c[j] = topo.NodeID(d.uv())
		}
		a.Copies[i] = c
	}
	nAbs := d.count(1)
	g := topo.New()
	for i := 0; i < nAbs; i++ {
		g.AddNode(d.str())
	}
	nAbsEdges := d.count(2)
	for i := 0; i < nAbsEdges; i++ {
		u, v := d.uv(), d.uv()
		if d.err != nil {
			return nil, d.err
		}
		if u >= uint64(nAbs) || v >= uint64(nAbs) || u == v {
			return nil, fmt.Errorf("build: relation store: abstract edge out of range")
		}
		g.AddEdge(topo.NodeID(u), topo.NodeID(v))
	}
	a.AbsG = g
	nRep := d.count(4)
	a.RepEdge = make(map[topo.Edge]topo.Edge, nRep)
	for i := 0; i < nRep; i++ {
		aU, aV := d.uv(), d.uv()
		cU, cV := d.uv(), d.uv()
		if d.err != nil {
			return nil, d.err
		}
		if aU >= uint64(nAbs) || aV >= uint64(nAbs) || cU >= uint64(numNodes) || cV >= uint64(numNodes) {
			return nil, fmt.Errorf("build: relation store: representative edge out of range")
		}
		a.RepEdge[topo.Edge{U: topo.NodeID(aU), V: topo.NodeID(aV)}] =
			topo.Edge{U: topo.NodeID(cU), V: topo.NodeID(cV)}
	}
	if d.boolv() {
		a.Live = sc.live
	} else {
		a.Live = d.bits()
		if d.err == nil && len(a.Live) != numEdges {
			return nil, fmt.Errorf("build: relation store: abstraction live vector length mismatch")
		}
	}
	if d.err != nil {
		return nil, d.err
	}

	// Cross-field validation against this network's shape.
	if len(sc.prefs) != numNodes || len(sc.live) != numEdges || len(a.F) != numNodes {
		return nil, fmt.Errorf("build: relation store: class %q: vector length mismatch", sc.prefix)
	}
	if int(a.Dest) >= numNodes || int(a.AbsDest) >= nAbs {
		return nil, fmt.Errorf("build: relation store: class %q: destination out of range", sc.prefix)
	}
	if len(a.Copies) != len(a.Groups) {
		return nil, fmt.Errorf("build: relation store: class %q: copies/groups mismatch", sc.prefix)
	}
	for _, f := range a.F {
		if f < 0 || f >= len(a.Groups) {
			return nil, fmt.Errorf("build: relation store: class %q: partition index out of range", sc.prefix)
		}
	}
	for _, grp := range a.Groups {
		for _, u := range grp {
			if int(u) >= numNodes {
				return nil, fmt.Errorf("build: relation store: class %q: group member out of range", sc.prefix)
			}
		}
	}
	for _, c := range a.Copies {
		if len(c) == 0 {
			return nil, fmt.Errorf("build: relation store: class %q: empty copy set", sc.prefix)
		}
		for _, u := range c {
			if int(u) >= nAbs {
				return nil, fmt.Errorf("build: relation store: class %q: abstract copy out of range", sc.prefix)
			}
		}
	}
	sc.abs = a
	return sc, nil
}

// decodeRelsRecord parses the relation record and resolves its router names
// against the live config.
func (b *Builder) decodeRelsRecord(d *relDec) (*stagedRels, error) {
	sr := &stagedRels{}
	sr.erased = d.boolv()
	sr.nvars = int(d.uv())
	sr.nodes = d.u32s()
	n := d.count(8)
	if d.err != nil {
		return nil, d.err
	}
	sr.keys = make([]relKey, 0, n)
	sr.drops = make([]bool, 0, n)
	sr.refs = make([]uint32, 0, n)
	envOf := func(router string) (*policy.Env, error) {
		if router == "" {
			return nil, nil
		}
		r, ok := b.Cfg.Routers[router]
		if !ok || r.Env == nil {
			return nil, fmt.Errorf("build: relation store: unknown router %q in relation key", router)
		}
		return r.Env, nil
	}
	for i := 0; i < n; i++ {
		expRouter := d.str()
		expMap := d.str()
		impRouter := d.str()
		impMap := d.str()
		ibgp := d.boolv()
		fp := d.str()
		drops := d.boolv()
		if d.err != nil {
			return nil, d.err
		}
		if d.off+4 > len(d.b) {
			return nil, fmt.Errorf("build: relation store: truncated relation ref")
		}
		ref := binary.LittleEndian.Uint32(d.b[d.off:])
		d.off += 4
		k := relKey{expMap: expMap, impMap: impMap, ibgp: ibgp, fp: fp}
		var err error
		// Mirror edgeRelation's normalisation: the identity map carries no
		// namespace.
		if expMap != "" {
			if k.expEnv, err = envOf(expRouter); err != nil {
				return nil, err
			}
		}
		if impMap != "" {
			if k.impEnv, err = envOf(impRouter); err != nil {
				return nil, err
			}
		}
		sr.keys = append(sr.keys, k)
		sr.drops = append(sr.drops, drops)
		sr.refs = append(sr.refs, ref)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("build: relation store: trailing bytes in relations record")
	}
	return sr, nil
}
