package build

import (
	"context"
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

// FuzzLoadRelationStore feeds loadRelationStore hostile payloads. The frame's
// CRC turns every mangled file into the same early error, so the payload is
// framed here, with the store's own magics, and the decoder behind the CRC
// sees the bytes. Whatever they are, a load must not panic, and a refused
// load must leave the Builder cold and consistent: statistics unchanged, the
// next Compress a fresh refinement.
//
// Seeds: a real payload and its truncation at every point where the decoder
// is about to read a collection length. testdata/fuzz holds a snapshot of the
// same (the whole payload, every such point of its first entry, the start of
// each later one).
func FuzzLoadRelationStore(f *testing.F) {
	count, payload := relstorePayload(f)
	f.Add(count, payload)
	for _, c := range countBoundaries(f, payload) {
		f.Add(count, payload[:c])
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
