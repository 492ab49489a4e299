package build

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"bonsai/internal/frame"
	"bonsai/internal/netgen"
)

// relstorePayload returns the frame number (the entry count) and the payload
// of a warm Fattree(4) Builder's relation store.
func relstorePayload(t testing.TB) (count uint64, payload []byte) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	count, payload, err = frame.Decode(relStoreMagic, relStoreEnd, saveToBuffer(t, b))
	if err != nil {
		t.Fatal(err)
	}
	return count, payload
}

// countBoundaries walks a well-formed payload with the decoder's own cursor
// and returns every offset at which a collection length is about to be read.
// It mirrors appendEntry, and fails when it no longer does.
func countBoundaries(t testing.TB, payload []byte) []int {
	d := &relDec{b: payload, off: 32}
	skip := func(n int) {
		for ; n > 0; n-- {
			d.uv()
		}
	}
	skip(2) // node and edge counts
	var cuts []int
	mark := func() { cuts = append(cuts, d.off) }
	nested := func() {
		mark()
		for n := d.count(1); n > 0; n-- {
			mark()
			skip(d.count(1))
		}
	}
	for d.off < len(d.b) && d.err == nil {
		mark()
		d.str() // member prefix
		d.boolv()
		mark()
		skip(d.count(1)) // prefs
		d.bits()
		skip(4)  // dest, abstract dest, iterations, colour splits
		nested() // groups
		mark()
		skip(d.count(1)) // F
		nested()         // copies
		mark()
		for n := d.count(1); n > 0; n-- {
			mark()
			d.str()
		}
		mark()
		skip(2 * d.count(2)) // abstract edges
		mark()
		skip(4 * d.count(4)) // representatives
	}
	if d.err != nil || d.off != len(d.b) {
		t.Fatalf("walk ended at %d of %d bytes: %v", d.off, len(d.b), d.err)
	}
	return cuts
}

// unusableAbstractions returns four manglings of a well-formed payload's
// first entry that leave every length and range plausible: a representative
// that is not an edge of the network, an abstract edge listed twice
// (topo.AddEdge folds it, so the graph has one edge fewer than the list), a
// representative list one short of the abstract edges, and a group with no
// member. Each loaded before the decoder held the representatives to
// AbsG.Edges() and the groups to having a representative; AbstractInstance
// then refused the first three on every query and panicked on the fourth.
func unusableAbstractions(t testing.TB, payload []byte) map[string][]byte {
	d := &relDec{b: payload, off: 32}
	skip := func(n int) {
		for ; n > 0; n-- {
			d.uv()
		}
	}
	nested := func() {
		for n := d.count(1); n > 0; n-- {
			skip(d.count(1))
		}
	}
	skip(2)
	d.str()
	d.boolv()
	skip(d.count(1))
	d.bits()
	skip(4)
	singletonAt := -1 // a group of one member: its length, then the member
	for n := d.count(1); n > 0; n-- {
		at := d.off
		members := d.count(1)
		skip(members)
		if members == 1 && d.off-at == 2 {
			singletonAt = at
		}
	}
	skip(d.count(1))
	nested()
	for n := d.count(1); n > 0; n-- {
		d.str()
	}
	absEdgesAt := d.off
	skip(2 * d.count(2))
	repsAt := d.off
	nRep := d.count(4)
	skip(4 * nRep)
	repsEnd := d.off
	if d.err != nil || nRep < 2 || repsEnd-repsAt != 1+4*nRep || singletonAt < 0 {
		// The splices below are byte-wise: every varint must be one byte.
		t.Fatalf("first entry: %d representatives in %d bytes, singleton group at %d: %v",
			nRep, repsEnd-repsAt, singletonAt, d.err)
	}
	notAnEdge := bytes.Clone(payload)
	notAnEdge[repsAt+4] = notAnEdge[repsAt+3] // (cU, cV) becomes (cU, cU)
	repeated := bytes.Clone(payload)
	copy(repeated[absEdgesAt+3:absEdgesAt+5], repeated[absEdgesAt+1:absEdgesAt+3])
	short := slices.Concat(payload[:repsEnd-4], payload[repsEnd:])
	short[repsAt]--
	emptyGroup := slices.Concat(payload[:singletonAt], []byte{0}, payload[singletonAt+2:])
	return map[string][]byte{
		"group without a member":            emptyGroup,
		"representative is not an edge":     notAnEdge,
		"repeated abstract edge":            repeated,
		"one representative short of edges": short,
	}
}

// FuzzLoadRelationStore feeds loadRelationStore hostile payloads. The frame's
// CRC turns every mangled file into the same early error, so the payload is
// framed here, with the store's own magics, and the decoder behind the CRC
// sees the bytes. Whatever they are, a load must not panic; a refused load
// must leave the Builder cold and consistent — statistics unchanged, the next
// Compress a fresh refinement — and an accepted one must have installed
// abstractions the Builder can use: an abstract SRP instance builds for every
// class that holds one.
//
// Seeds: a real payload, its truncation at every point where the decoder is
// about to read a collection length, and unusableAbstractions' four.
// testdata/fuzz holds a snapshot of the same (the whole payload, every such
// point of its first entry, the start of each later one, the four).
func FuzzLoadRelationStore(f *testing.F) {
	count, payload := relstorePayload(f)
	f.Add(count, payload)
	for _, c := range countBoundaries(f, payload) {
		f.Add(count, payload[:c])
	}
	for _, bad := range unusableAbstractions(f, payload) {
		f.Add(count, bad)
	}
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	f.Fuzz(func(t *testing.T, count uint64, payload []byte) {
		b, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		before := b.AbstractionCacheStats()
		n, err := b.loadRelationStore(frame.Encode(relStoreMagic, relStoreEnd, count, payload))
		if err == nil {
			for _, cls := range b.Classes() {
				if e, ok := b.cachedEntry(cls); ok {
					if _, err := b.AbstractInstance(cls, e.abs); err != nil {
						t.Fatalf("accepted load installed an abstraction of %v that builds no instance: %v", cls.Prefix, err)
					}
				}
			}
			return
		}
		if after := b.AbstractionCacheStats(); n != 0 || after != before {
			t.Fatalf("refused load (%v) installed %d entries; stats %+v, were %+v", err, n, after, before)
		}
		comp := b.NewCompiler(true)
		defer comp.Close()
		if _, prov, err := b.CompressTagged(context.Background(), comp, b.Classes()[0]); err != nil || prov != ProvFresh {
			t.Fatalf("first Compress after a refused load: provenance %v, err %v; want fresh", prov, err)
		}
	})
}
