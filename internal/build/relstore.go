// The persisted relation store: the Builder's completed abstraction-store
// entries on disk, so a restarted process answers each class's first query
// from the file instead of re-running refinement.
//
// The contract, whole: relstore.bin holds the abstractions of exactly the
// configuration whose canonical print hashes to the SHA-256 at the head of
// its payload; any mismatch or damage is an error that installs nothing (the
// caller logs it and starts cold — the store is a cache, never the source of
// truth). The bytes are one internal/frame file, the frame the journal's
// checkpoint uses, replaced atomically: the frame's number is the entry
// count, its payload the config hash, the topology shape, then the entries.
//
// Entries are keyed by a member destination prefix rather than by the
// store's fingerprint string, because fingerprints embed intern-table IDs
// assigned in arrival order and are therefore not stable across processes;
// the prefix re-derives the fingerprint deterministically in the loading
// Builder. Compiled BDD relations are not persisted: having them saved a
// fraction of a millisecond after a load of 3-90 ms (docs/audit.md §8).
package build

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/frame"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// relStoreMagic opens every relation-store file; the trailing byte is the
// format version and bumps on incompatible changes (1 was the record-framed
// format that also carried BDD relations).
const (
	relStoreMagic = "BRELST\x00\x02"
	relStoreEnd   = "BRELSTND"
)

// ---------------------------------------------------------------------------
// Primitive encoding. The payload is built with appenders and read with a
// cursor that latches the first error; all integers are uvarint.

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

// bits reads an edge set written by appendBits and the count of edges it
// ranges over. A bit the last byte carries past the count reads as absent.
func (d *relDec) bits() (topo.EdgeSet, int) {
	v := d.uv()
	if d.err != nil {
		return nil, 0
	}
	// Bitsets pack 8 elements per byte, so the generic count() bound (one
	// byte per element) is 8x too strict here; bound against bits remaining.
	if v > uint64(len(d.b)-d.off)*8 {
		d.fail("implausible bitset length %d at offset %d", v, d.off)
		return nil, 0
	}
	n := int(v)
	nb := (n + 7) / 8
	if d.off+nb > len(d.b) {
		d.fail("truncated bitset at offset %d", d.off)
		return nil, 0
	}
	s := topo.NewEdgeSet(n)
	for j, c := range d.b[d.off : d.off+nb] {
		s[j/8] |= uint64(c) << (8 * (j % 8))
	}
	if r := n % 64; r != 0 {
		s[len(s)-1] &= 1<<r - 1
	}
	d.off += nb
	return s, n
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

// appendBits writes s, a set over n edges, as n and then its bits, LSB
// first, in (n+7)/8 bytes.
func appendBits(b []byte, s topo.EdgeSet, n int) []byte {
	b = binary.AppendUvarint(b, uint64(n))
	for j := range (n + 7) / 8 {
		b = append(b, byte(s[j/8]>>(8*(j%8))))
	}
	return b
}

// ConfigHash returns the identity a relation store is bound to: the SHA-256
// of the network's canonical config text.
func ConfigHash(n *config.Network) [32]byte {
	return sha256.Sum256([]byte(config.PrintString(n)))
}

// ---------------------------------------------------------------------------
// Save.

// encodeRelationStore renders every completed abstraction-store entry as one
// frame bound to this Builder's configuration.
func (b *Builder) encodeRelationStore() []byte {
	// Snapshot completed entries and the least prefix naming each, under the
	// store and intern locks respectively; entries are immutable once done, so
	// the encoding below runs lock-free.
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
	b.intern.mu.Lock()
	for pfx, fp := range b.fpByPrefix {
		if s, ok := prefixOf[fp]; !ok || pfx.String() < s {
			prefixOf[fp] = pfx.String()
		}
	}
	b.intern.mu.Unlock()
	// Every completed entry signatured a prefix; one that somehow did not has
	// no name to be saved under.
	entries = slices.DeleteFunc(entries, func(e *absEntry) bool { return prefixOf[e.fp] == "" })
	// Deterministic output order (map iteration above is not).
	slices.SortFunc(entries, func(a, c *absEntry) int {
		return strings.Compare(prefixOf[a.fp], prefixOf[c.fp])
	})

	hash := ConfigHash(b.Cfg)
	p := make([]byte, 0, 64+256*len(entries))
	p = append(p, hash[:]...)
	p = binary.AppendUvarint(p, uint64(b.G.NumNodes()))
	p = binary.AppendUvarint(p, uint64(len(b.G.Edges())))
	for _, e := range entries {
		p = appendEntry(p, e, prefixOf[e.fp], len(b.G.Edges()))
	}
	return frame.Encode(relStoreMagic, relStoreEnd, uint64(len(entries)), p)
}

// appendEntry renders one completed store entry. Entries are named by a
// member prefix, not their fingerprint: fingerprints embed intern IDs
// assigned in arrival order, so only the prefix re-derives the same identity
// in another process.
func appendEntry(p []byte, e *absEntry, prefix string, edges int) []byte {
	a := e.abs
	p = appendStr(p, prefix)
	p = appendBool(p, e.pinned)
	p = binary.AppendUvarint(p, uint64(len(e.prefs)))
	for _, v := range e.prefs {
		p = binary.AppendUvarint(p, uint64(v))
	}
	// The entry's live set is one over this Builder's edges.
	p = appendBits(p, e.live, edges)

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
	// Representatives, each beside the abstract edge it stands for, in
	// AbsG.Edges() order.
	p = binary.AppendUvarint(p, uint64(len(a.RepEdge)))
	for k, ce := range a.RepEdge {
		p = binary.AppendUvarint(p, uint64(absEdges[k].U))
		p = binary.AppendUvarint(p, uint64(absEdges[k].V))
		p = binary.AppendUvarint(p, uint64(ce.U))
		p = binary.AppendUvarint(p, uint64(ce.V))
	}
	return p
}

// SaveRelationStoreFile durably replaces the relation store at path
// (frame.WriteFile: a crash mid-save leaves the old file or the new one,
// never a torn one). The compiler is ignored — no BDD state is persisted —
// and the parameter stays only because the frozen bench/ module passes one;
// a [benchmark] PR drops it (docs/audit.md §8).
func (b *Builder) SaveRelationStoreFile(path string, _ *policy.Compiler) error {
	return frame.WriteFile(path, b.encodeRelationStore(), nil)
}

// ---------------------------------------------------------------------------
// Load.

// LoadRelationStoreFile installs the relation store at path into the
// abstraction store and returns the number of entries installed. On any
// error nothing is installed: the file either loads whole or is rejected
// whole. The compiler is ignored, as in SaveRelationStoreFile.
func (b *Builder) LoadRelationStoreFile(path string, _ *policy.Compiler) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return b.loadRelationStore(data)
}

// stagedClass is one parsed-and-validated entry, not yet installed; sig is
// this Builder's own signature of the class the entry names.
type stagedClass struct {
	prefix string
	pinned bool
	prefs  []int
	live   topo.EdgeSet
	abs    *core.Abstraction
	sig    *classSig
}

// loadRelationStore is LoadRelationStoreFile on the file's bytes: decode and
// validate everything into private staging, then install.
func (b *Builder) loadRelationStore(data []byte) (int, error) {
	count, payload, err := frame.Decode(relStoreMagic, relStoreEnd, data)
	if err != nil {
		return 0, fmt.Errorf("build: relation store: %w", err)
	}
	d := &relDec{b: payload}
	if err := b.checkMeta(d); err != nil {
		return 0, err
	}
	// A count the payload cannot hold fails on the entry that runs out of
	// bytes, so it never sizes an allocation.
	var classes []*stagedClass
	for i := uint64(0); i < count; i++ {
		sc, err := b.decodeEntry(d)
		if err != nil {
			return 0, err
		}
		classes = append(classes, sc)
	}
	if d.off != len(d.b) {
		return 0, fmt.Errorf("build: relation store: %d trailing bytes after %d entries", len(d.b)-d.off, count)
	}

	// Resolve every entry against this Builder's own class machinery before
	// touching shared state: compute the local signature (and thereby the
	// local fingerprint) per staged prefix. Signature computation memoizes
	// into fpByPrefix and the intern table, which is harmless — both are
	// deterministic and outlive the load however it ends.
	seen := make(map[string]bool, len(classes))
	var iso isoScratch
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
		if sc.pinned && sc.abs.ColorSplits == 0 {
			// An entry that will be indexed as a transport seed is filed
			// under its colour key and keeps its colours, computed while the
			// signature is still private to this goroutine.
			sig.key, sig.col = b.colorKey(&iso, sig)
		}
		sc.sig = sig
	}

	// Everything validated; install. The store lock is taken per entry, as
	// Compress would, and an entry already warm (the load raced a query, or
	// ran twice) stays.
	installed := 0
	st := &b.store
	for _, sc := range classes {
		e := &absEntry{ready: closed, abs: sc.abs, fp: sc.sig.fp, sig: sc.sig, live: sc.live, prefs: sc.prefs}
		if sc.pinned && sc.abs.ColorSplits == 0 {
			e.targets = b.tab.seedTargets(sc.abs, sc.live)
		}
		st.mu.Lock()
		if st.admit(e) {
			installed++
		}
		st.mu.Unlock()
	}
	return installed, nil
}

// checkMeta validates the head of the payload against this Builder's
// network.
func (b *Builder) checkMeta(d *relDec) error {
	if d.off+32 > len(d.b) {
		return fmt.Errorf("build: relation store: truncated config hash")
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

// decodeEntry parses and structurally validates one entry.
func (b *Builder) decodeEntry(d *relDec) (*stagedClass, error) {
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
	var nLive int
	sc.live, nLive = d.bits()

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
	if g.NumNodes() != nAbs {
		// AddNode folds a repeated name onto the first; every index below is
		// checked against nAbs.
		return nil, fmt.Errorf("build: relation store: repeated abstract node name")
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
	if g.NumEdges() != nAbsEdges {
		// AddEdge folds a repeated edge onto the first.
		return nil, fmt.Errorf("build: relation store: repeated abstract edge")
	}
	a.AbsG = g
	// One representative per abstract edge, in Edges() order, each an edge of
	// this network: AbstractInstance would refuse anything else on every
	// query, and a loaded entry is never recompressed.
	absEdges := g.Edges()
	nRep := d.count(4)
	if nRep != nAbsEdges {
		return nil, fmt.Errorf("build: relation store: %d representatives for %d abstract edges", nRep, nAbsEdges)
	}
	a.RepEdge = make([]topo.Edge, nRep)
	for k := range a.RepEdge {
		aU, aV := d.uv(), d.uv()
		cU, cV := d.uv(), d.uv()
		if d.err != nil {
			return nil, d.err
		}
		if ae := absEdges[k]; aU != uint64(ae.U) || aV != uint64(ae.V) {
			return nil, fmt.Errorf("build: relation store: representative %d is out of abstract edge order", k)
		}
		if cU >= uint64(numNodes) || cV >= uint64(numNodes) || !b.G.HasEdge(topo.NodeID(cU), topo.NodeID(cV)) {
			return nil, fmt.Errorf("build: relation store: representative (%d,%d) is not an edge of this network", cU, cV)
		}
		a.RepEdge[k] = topo.Edge{U: topo.NodeID(cU), V: topo.NodeID(cV)}
	}
	if d.err != nil {
		return nil, d.err
	}

	// Cross-field validation against this network's shape.
	if len(sc.prefs) != numNodes || nLive != numEdges || len(a.F) != numNodes {
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
		if len(grp) == 0 {
			// A group's first member is its representative router.
			return nil, fmt.Errorf("build: relation store: class %q: empty group", sc.prefix)
		}
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
