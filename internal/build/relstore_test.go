package build

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/frame"
	"bonsai/internal/netgen"
)

// saveToBuffer warms b over every class and serialises its relation store.
func saveToBuffer(t testing.TB, b *Builder) []byte {
	t.Helper()
	comp := b.NewCompiler(true)
	defer comp.Close()
	ctx := context.Background()
	for _, cls := range b.Classes() {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatalf("compress %v: %v", cls.Prefix, err)
		}
	}
	return b.encodeRelationStore()
}

// rebuilt parses the canonical print of net, modelling the recovery path
// (checkpoint text -> parse -> build) rather than reusing in-memory objects.
func rebuilt(t *testing.T, b *Builder) *Builder {
	t.Helper()
	net2, err := config.ParseString(config.PrintString(b.Cfg))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	b2, err := New(net2)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return b2
}

// TestRelationStoreRoundTrip: serialize -> load must be field-identical.
func TestRelationStoreRoundTrip(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	data := saveToBuffer(t, b)
	warm := b.AbstractionCacheStats()
	if warm.Fresh == 0 {
		t.Fatalf("no fresh abstractions computed before save")
	}

	b2 := rebuilt(t, b)
	comp2 := b2.NewCompiler(true)
	defer comp2.Close()
	installed, err := b2.loadRelationStore(data)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if want := warm.Fresh + int(warm.Transported); installed != want {
		t.Fatalf("installed %d entries, want %d (fresh %d + transported %d)",
			installed, want, warm.Fresh, warm.Transported)
	}

	// Every class must be served from the loaded store without refinement,
	// and the served abstraction must be field-identical to the original.
	ctx := context.Background()
	comp1 := b.NewCompiler(true)
	defer comp1.Close()
	for _, cls := range b2.Classes() {
		abs2, prov, err := b2.CompressTagged(ctx, comp2, cls)
		if err != nil {
			t.Fatalf("warm compress %v: %v", cls.Prefix, err)
		}
		if prov != ProvCached {
			t.Fatalf("class %v: provenance %v after load, want cache", cls.Prefix, prov)
		}
		abs1, err := b.Compress(ctx, comp1, cls)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(abs1.Groups, abs2.Groups) ||
			!reflect.DeepEqual(abs1.F, abs2.F) ||
			!reflect.DeepEqual(abs1.Copies, abs2.Copies) ||
			abs1.AbsDest != abs2.AbsDest || abs1.Dest != abs2.Dest ||
			abs1.ColorSplits != abs2.ColorSplits {
			t.Fatalf("class %v: loaded abstraction differs from original", cls.Prefix)
		}
		if !slices.Equal(abs1.RepEdge, abs2.RepEdge) {
			t.Fatalf("class %v: representative edges differ", cls.Prefix)
		}
		if abs1.AbsG.NumNodes() != abs2.AbsG.NumNodes() || abs1.AbsG.NumLinks() != abs2.AbsG.NumLinks() {
			t.Fatalf("class %v: abstract graph shape differs", cls.Prefix)
		}
		for _, u := range abs1.AbsG.Nodes() {
			if abs1.AbsG.Name(u) != abs2.AbsG.Name(u) {
				t.Fatalf("class %v: abstract node %d name differs", cls.Prefix, u)
			}
		}
	}
	after := b2.AbstractionCacheStats()
	if after.Fresh != 0 {
		t.Fatalf("warm builder ran %d fresh refinements, want 0", after.Fresh)
	}
	if after.LiveBytes <= 0 {
		t.Fatalf("loaded store accounts %d bytes", after.LiveBytes)
	}
}

func TestRelationStoreLoadIsIdempotent(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	data := saveToBuffer(t, b)
	b2 := rebuilt(t, b)
	n1, err := b2.loadRelationStore(data)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := b2.loadRelationStore(data)
	if err != nil {
		t.Fatalf("second load: %v", err)
	}
	if n1 == 0 || n2 != 0 {
		t.Fatalf("loads installed %d then %d entries, want >0 then 0", n1, n2)
	}
}

// TestRelationStoreRejectsCorruption: damage is rejected whole — nothing
// installed, the store untouched.
func TestRelationStoreRejectsCorruption(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	data := saveToBuffer(t, b)

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(d []byte) []byte { return nil }},
		{"bad magic", func(d []byte) []byte {
			d[0] ^= 0xff
			return d
		}},
		{"truncated mid-record", func(d []byte) []byte { return d[:len(d)/2] }},
		{"missing end magic", func(d []byte) []byte { return d[:len(d)-len(relStoreEnd)] }},
		{"bit flip early", func(d []byte) []byte {
			d[len(d)/4] ^= 0x10
			return d
		}},
		{"bit flip late", func(d []byte) []byte {
			d[len(d)-20] ^= 0x01
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b2 := rebuilt(t, b)
			n, err := b2.loadRelationStore(tc.mangle(bytes.Clone(data)))
			if err == nil {
				t.Fatalf("corrupt store loaded without error (%d entries)", n)
			}
			// Rejection must be total: nothing installed, store untouched.
			st := b2.AbstractionCacheStats()
			if n != 0 || st.LiveBytes != 0 || st.Fresh != 0 {
				t.Fatalf("partial install after rejected load: n=%d live=%d", n, st.LiveBytes)
			}
		})
	}
}

// TestRelationStoreRejectsUnusableAbstractions: a store whose representatives
// do not line up with its abstract edges or name a pair of routers that is
// not an edge, or one with a memberless group, is a writer bug or a crafted
// file behind a valid CRC and config hash. No abstract instance can be built
// from such an abstraction and a loaded entry is never recompressed, so the
// load is refused whole and the Builder stays cold.
func TestRelationStoreRejectsUnusableAbstractions(t *testing.T) {
	count, payload := relstorePayload(t)
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	for name, bad := range unusableAbstractions(t, payload) {
		t.Run(name, func(t *testing.T) {
			b, comp := newBuilder(t, net)
			before := b.AbstractionCacheStats()
			n, err := b.loadRelationStore(frame.Encode(relStoreMagic, relStoreEnd, count, bad))
			if err == nil {
				t.Fatalf("the store loaded (%d entries)", n)
			}
			if after := b.AbstractionCacheStats(); n != 0 || after != before {
				t.Fatalf("refused load (%v) installed %d entries; stats %+v, were %+v", err, n, after, before)
			}
			if _, prov, err := b.CompressTagged(context.Background(), comp, b.Classes()[0]); err != nil || prov != ProvFresh {
				t.Fatalf("first Compress after the refused load: provenance %v, err %v; want fresh", prov, err)
			}
		})
	}
}

// TestRelationStoreBytesUnchanged: representatives became a vector without
// the file moving a byte. The hash is the Fattree(4, shortest-path) store's
// as PR 22 wrote it (1 790 bytes), so a store sealed before the change loads
// after it and the magic keeps its version.
func TestRelationStoreBytesUnchanged(t *testing.T) {
	const want = "351106c40274fd6bc9fa9cd0338005e2445dbaa73ff197e6627f6262a3387698"
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	first := saveToBuffer(t, b)
	if got := fmt.Sprintf("%x", sha256.Sum256(first)); got != want {
		t.Fatalf("store is %d bytes with SHA-256 %s, want %s", len(first), got, want)
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(b.encodeRelationStore(), first) {
			t.Fatalf("encode %d differs from the first", i+2)
		}
	}
}

// TestRelationStoreBytesDeterministic: two Builders over the same network
// write the same store. On the datacenter several prefixes share a
// fingerprint, so an entry must be named by the least of them, not by
// whichever the prefix map yields first.
func TestRelationStoreBytesDeterministic(t *testing.T) {
	net := netgen.Datacenter(netgen.DCOptions{})
	encode := func() []byte {
		b, err := New(net)
		if err != nil {
			t.Fatal(err)
		}
		return saveToBuffer(t, b)
	}
	if first, second := encode(), encode(); !bytes.Equal(first, second) {
		t.Fatalf("a second Builder encodes %d bytes that differ from the first's %d", len(second), len(first))
	}
}

func TestRelationStoreRejectsWrongNetwork(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	data := saveToBuffer(t, b)
	other, err := New(netgen.Ring(8))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := other.loadRelationStore(data); err == nil {
		t.Fatalf("store for another network loaded (%d entries)", n)
	}
	if st := other.AbstractionCacheStats(); st.LiveBytes != 0 {
		t.Fatalf("rejected load left %d live bytes", st.LiveBytes)
	}
}

// TestRelationStoreRejectsOldFormat: the format version is the magic's last
// byte. A file that differs from a loadable one in nothing else — a version-1
// daemon's relstore.bin begins the same way — is refused by its magic, before
// anything in it is interpreted.
func TestRelationStoreRejectsOldFormat(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	old := saveToBuffer(t, b)
	old[len(relStoreMagic)-1] = 1
	b2 := rebuilt(t, b)
	n, err := b2.loadRelationStore(old)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("version-1 store: n=%d err=%v, want a bad-magic rejection", n, err)
	}
	if st := b2.AbstractionCacheStats(); n != 0 || st.LiveBytes != 0 {
		t.Fatalf("rejected load installed %d entries, %d live bytes", n, st.LiveBytes)
	}
}
