package build

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
)

// TestFingerprintOmitsPrefixFreeMaps: a class fingerprint records the match
// outcomes of the route maps with a prefix match (matchRMs) and of no other.
// On tagNet, whose hub also exports through a map that only tags, the hub's
// two prefixes differ only in the import map's prefix-list outcome and must
// get different fingerprints; every prefix-free slot holds 0; and every
// class through Compress equals CompressFresh. The datacenter's 180 session
// maps have no prefix match, so its fingerprints hold no route-map entry;
// Fattree(8)'s all have one, so its fingerprints record every map.
func TestFingerprintOmitsPrefixFreeMaps(t *testing.T) {
	ctx := context.Background()
	net := tagNet()
	d := net.Routers["d"]
	d.Env.RouteMaps["TAG"] = &policy.RouteMap{Name: "TAG", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Permit, Sets: []policy.Set{{Kind: policy.AddCommunity, Comm: protocols.Community(200<<16 | 1)}}},
	}}
	for _, nb := range d.BGP.Neighbors {
		nb.ExportMap = "TAG"
	}
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	tab := b.tab
	var want []int32
	for i, r := range tab.sigRMs {
		if strings.HasPrefix(r.name, "IMP") {
			want = append(want, int32(i))
		}
	}
	if len(want) == 0 || len(want) == len(tab.sigRMs) || !slices.Equal(tab.matchRMs, want) {
		t.Fatalf("tags: matchRMs %v, want the import map's entries %v of %d", tab.matchRMs, want, len(tab.sigRMs))
	}
	fps := make(map[string]string) // hub prefix -> fingerprint
	comp, ref := b.NewCompiler(true), b.NewCompiler(true)
	defer comp.Close()
	defer ref.Close()
	for _, cls := range b.Classes() {
		s, err := b.classSignature(cls)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range s.fpIDs {
			if !slices.Contains(tab.matchRMs, int32(i)) && id != 0 {
				t.Fatalf("tags %s: prefix-free map %s has outcome id %d", cls.Prefix, tab.sigRMs[i].name, id)
			}
		}
		if b.G.Name(s.dest) == "d" {
			fps[cls.Prefix.String()] = s.fp
		}
		got, err := b.Compress(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := b.CompressFresh(ctx, ref, cls)
		if err != nil {
			t.Fatal(err)
		}
		absEqual(t, "tags "+cls.Prefix.String(), got, fresh)
	}
	if len(fps) != 2 || fps["10.0.0.0/24"] == fps["10.0.1.0/24"] {
		t.Fatalf("tags: the hub's prefixes differ in one prefix-list outcome and share a fingerprint: %q", fps)
	}

	for _, tc := range []struct {
		namedNetwork
		allMatch bool // every session map has a prefix match, else none has
	}{
		{namedNetwork{"datacenter", netgen.Datacenter(netgen.DCOptions{})}, false},
		{namedNetwork{"fattree-8", netgen.Fattree(8, netgen.PolicyShortestPath)}, true},
	} {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		tab := b.tab
		t.Logf("%s: %d session maps, %d with a prefix match", tc.name, len(tab.sigRMs), len(tab.matchRMs))
		if len(tab.sigRMs) == 0 {
			t.Fatalf("%s: no session maps", tc.name)
		}
		if tc.allMatch && len(tab.matchRMs) != len(tab.sigRMs) || !tc.allMatch && len(tab.matchRMs) != 0 {
			t.Fatalf("%s: %d of %d session maps in matchRMs", tc.name, len(tab.matchRMs), len(tab.sigRMs))
		}
		for _, cls := range b.Classes() {
			s, err := b.classSignature(cls)
			if err != nil {
				t.Fatal(err)
			}
			// The policy part is statics | match outcomes | ACL verdicts.
			parts := strings.Split(s.fp[s.pol:], "|")
			if len(parts) != 3 || (parts[1] == "") == tc.allMatch || strings.Count(parts[1], ";") != len(tab.matchRMs) {
				t.Fatalf("%s %s: policy part %q, want %d route-map entries", tc.name, cls.Prefix, s.fp[s.pol:], len(tab.matchRMs))
			}
		}
	}
}
