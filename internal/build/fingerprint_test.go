package build

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
	"bonsai/internal/topo"
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

// TestOrbitStaticFilterSkipsOnlyRefusals: on every orbit family, the orbit
// loop skips a seed whose count of static-bearing edges differs from the
// class's, and each such proposal, composed and handed to verifyIso here, is
// refused. Each signature's count is the size of its statics mask, and each
// miss is served by the first proposal verifyIso accepts, in orbit order,
// with no proposal filtered: the one the loop served before the filter. The
// datacenter must skip some proposal, or the filter is untested.
func TestOrbitStaticFilterSkipsOnlyRefusals(t *testing.T) {
	for _, tc := range orbitFamilies() {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		var served *absEntry
		b.onTransport = func(seed *absEntry, _ []topo.NodeID, _ []int32) { served = seed }
		comp := b.NewCompiler(true)
		skipped, proposed := 0, 0
		for _, cls := range b.Classes() {
			sig, err := b.classSignature(cls)
			if err != nil {
				t.Fatal(err)
			}
			nStatic := 0
			for _, on := range sig.statics {
				if on {
					nStatic++
				}
			}
			if sig.nStatic != nStatic {
				t.Fatalf("%s %s: nStatic %d, statics mask holds %d", tc.name, cls.Prefix, sig.nStatic, nStatic)
			}
			var first *absEntry // the first seed whose composed π verifyIso accepts
			if _, hit := b.store.entries[sig.fp]; !hit {
				for _, c := range b.store.orbits {
					if !c.orbit.reaches(sig.dest) {
						continue
					}
					proposed++
					_, ok := b.verifyIso(new(isoScratch), c.sig, sig, c.orbit.compose(sig.dest))
					if c.sig.nStatic != sig.nStatic {
						skipped++
						if ok {
							t.Fatalf("%s %s: the filter skips a seed (%d static edges, class %d) whose π verifyIso accepts",
								tc.name, cls.Prefix, c.sig.nStatic, sig.nStatic)
						}
					}
					if ok && first == nil {
						first = c
					}
				}
			}
			served = nil
			if _, _, err := b.CompressTagged(context.Background(), comp, cls); err != nil {
				t.Fatal(err)
			}
			fromOrbit := served != nil && heldEntry(b, cls).out == outOrbit
			if first != nil && (!fromOrbit || served != first) {
				t.Fatalf("%s %s: an orbit's π verifies, but the class was not served by the first such seed", tc.name, cls.Prefix)
			}
			if first == nil && fromOrbit {
				t.Fatalf("%s %s: served from an orbit no composed π of which verifies", tc.name, cls.Prefix)
			}
		}
		comp.Close()
		t.Logf("%s: %d orbit proposals, %d skipped for their static count", tc.name, proposed, skipped)
		if tc.name == "datacenter" && skipped == 0 {
			t.Fatal("datacenter: no proposal skipped")
		}
	}
}
