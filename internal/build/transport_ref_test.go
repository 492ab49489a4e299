package build

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

type namedNetwork struct {
	name string
	net  *config.Network
}

// transportNetworks are the networks the transport references run on:
// shortest-path and prefer-bottom fat-trees (every class after the first
// transported; BGP case splitting on the latter), a WAN whose classes
// colour-split, a spine-leaf fabric with identity-shared prefixes, and a
// full mesh, whose classes are stars of one another.
func transportNetworks() []namedNetwork {
	return []namedNetwork{
		{"fattree-8-sp", netgen.Fattree(8, netgen.PolicyShortestPath)},
		{"fattree-8-pb", netgen.Fattree(8, netgen.PolicyPreferBottom)},
		{"wan-10-20-3", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3})},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{})},
		{"mesh-12", netgen.FullMesh(12)},
	}
}

// transportPaths compresses every class of b in order and returns how many
// came out fresh and transported, and of the transports how many the search
// served and how many an orbit did, as the store's tally counts them. Each
// transport is handed to seen with the prefixes of its class and seed and
// whether its entry's outcome is an orbit's.
func transportPaths(t *testing.T, b *Builder, seen func(prefix, seed string, pi []topo.NodeID, epi []int32, fromOrbit bool)) (fresh, transported, searched, orbitHits int) {
	t.Helper()
	seedPrefix := make(map[*absEntry]string)
	var seed *absEntry
	var pi []topo.NodeID
	var epi []int32
	b.onTransport = func(s *absEntry, p []topo.NodeID, ep []int32) { seed, pi, epi = s, slices.Clone(p), slices.Clone(ep) }
	defer func() { b.onTransport = nil }()
	comp := b.NewCompiler(true)
	defer comp.Close()
	for _, cls := range b.Classes() {
		cur := cls.Prefix.String()
		_, prov, err := b.CompressTagged(context.Background(), comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		switch e := heldEntry(b, cls); prov {
		case ProvFresh:
			fresh++
			seedPrefix[e] = cur
		case ProvTransported:
			transported++
			if seen != nil {
				seen(cur, seedPrefix[seed], pi, epi, e.out == outOrbit)
			}
		}
	}
	return fresh, transported, int(b.store.tally[outSearch]), int(b.store.tally[outOrbit])
}

// TestTransportPermutationsMatchParent compresses every class of each
// network in order and hashes what Compress served each transported class
// under: the class's and its seed's prefixes, whether the seed's orbit
// proposed π or the search found it, π and the edge permutation the sweep
// yielded. The digests in testdata/transport_digests.txt were re-captured
// when orbits arrived, because a composed π may differ from the searched one
// by an element of the destination's stabiliser; the contract is the
// abstraction, which TestAbstractionsMatchParentDigest pins. A search that
// prunes differently, another seed, or a generator kept or dropped
// differently fails here (a mismatch prints the new lines).
func TestTransportPermutationsMatchParent(t *testing.T) {
	want, err := os.ReadFile("testdata/transport_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tc := range transportNetworks() {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		_, transported, _, orbitHits := transportPaths(t, b, func(prefix, seed string, pi []topo.NodeID, epi []int32, fromOrbit bool) {
			path := "search"
			if fromOrbit {
				path = "orbit"
			}
			fmt.Fprintln(h, prefix, seed, path, pi, epi)
		})
		fmt.Fprintf(&got, "%s classes=%d transported=%d orbit=%d sha256=%x\n", tc.name, len(b.Classes()), transported, orbitHits, h.Sum(nil))
	}
	if got.String() != string(want) {
		t.Fatalf("transport permutations differ from testdata/transport_digests.txt:\n%s", got.String())
	}
}

// orbitFamily is one of the families whose transport paths are pinned,
// with its counts: classes fresh and transported, and of the transports how
// many the search served and how many an orbit did, from how many
// generators.
type orbitFamily struct {
	name                                      string
	net                                       *config.Network
	fresh, transported, searched, orbit, gens int
}

// linkDown returns net with its i-th link administratively down.
func linkDown(net *config.Network, i int) *config.Network {
	net.Links[i].Down = true
	return net
}

// orbitFamilies are the eight generated families plus Fattree(12) with one
// link down, three ways: a flap breaks the fabric's symmetry, so each class
// the flap tells apart needs its own seed or search.
func orbitFamilies() []orbitFamily {
	return []orbitFamily{
		{"fattree-20", netgen.Fattree(20, netgen.PolicyShortestPath), 1, 199, 18, 181, 18},
		{"fattree-12", netgen.Fattree(12, netgen.PolicyShortestPath), 1, 71, 14, 57, 14},
		{"fattree-8-pb", netgen.Fattree(8, netgen.PolicyPreferBottom), 1, 31, 10, 21, 10},
		{"ring-24", netgen.Ring(24), 1, 23, 2, 21, 2},
		{"mesh-12", netgen.FullMesh(12), 1, 11, 11, 0, 11},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{}), 1, 15, 8, 7, 8},
		{"wan-10-20-3", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3}), 16, 44, 14, 30, 14},
		{"datacenter", netgen.Datacenter(netgen.DCOptions{}), 3, 168, 48, 120, 26},
		{"fattree-12-link0-down", linkDown(netgen.Fattree(12, netgen.PolicyShortestPath), 0), 2, 70, 18, 52, 18},
		{"fattree-12-link100-down", linkDown(netgen.Fattree(12, netgen.PolicyShortestPath), 100), 2, 70, 18, 52, 18},
		{"fattree-12-link400-down", linkDown(netgen.Fattree(12, netgen.PolicyShortestPath), 400), 3, 69, 17, 52, 17},
	}
}

// TestOrbitCountsPerFamily pins how each family's transports are served.
// A refused composed π falls back to the search, so an orbit only ever
// replaces a search. Searches, orbit hits and generators are logged and
// pinned. FullMesh searches every class: its π's are transpositions, and
// each one adds a single point to the orbit, so no destination is in an
// orbit before its own search. The datacenter's leaves and clusters differ
// only in the tags their maps add, which no map matches: with those erased
// from the content labels, 168 of its 171 distinct classes transport (none
// did while labels kept them). On the flapped fat-trees the colour filter is
// what keeps the search within budget: without it, 3/69 and 4/68 of the
// link-100 and link-400 classes came out fresh/transported.
func TestOrbitCountsPerFamily(t *testing.T) {
	for _, tc := range orbitFamilies() {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		fresh, transported, searched, orbitHits := transportPaths(t, b, nil)
		gens := 0
		for _, seed := range b.store.orbits {
			gens += len(seed.orbit.gens)
		}
		t.Logf("%s: %d classes, %d fresh, %d transported: %d searched, %d orbit hits; %d generators over %d seeds",
			tc.name, len(b.Classes()), fresh, transported, searched, orbitHits, gens, len(b.store.orbits))
		if fresh != tc.fresh || transported != tc.transported || searched != tc.searched || orbitHits != tc.orbit || gens != tc.gens {
			t.Errorf("%s: fresh %d transported %d searched %d orbit %d generators %d, want %d %d %d %d %d",
				tc.name, fresh, transported, searched, orbitHits, gens, tc.fresh, tc.transported, tc.searched, tc.orbit, tc.gens)
		}
	}
}

// TestTransportAssemblyStopsExactly holds a transport's assembly, which
// stops each group's scan at its seed's target count, to the full scan: on
// every orbit family, each transported class's abstraction equals
// core.Assemble of the same partition, prefs and liveness with no counts
// (Succ order included), and each seed's counts equal a recount from its own
// partition and live set.
func TestTransportAssemblyStopsExactly(t *testing.T) {
	for _, tc := range orbitFamilies() {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		transportPaths(t, b, nil)
		mode := core.ModeEffective
		if b.HasBGP() {
			mode = core.ModeBGP
		}
		seeds, transported := 0, 0
		for _, e := range b.store.entries {
			if e.pinned {
				seeds++
				want := make([]int32, len(e.abs.Groups))
				seen := make(map[[2]int]bool)
				for i, ed := range b.G.Edges() {
					if pair := [2]int{e.abs.F[ed.U], e.abs.F[ed.V]}; e.live.Has(i) && !seen[pair] {
						seen[pair] = true
						want[pair[0]]++
					}
				}
				if !slices.Equal(e.targets, want) {
					t.Fatalf("%s: seed at %s: target counts %v, recount %v", tc.name, b.G.Name(e.abs.Dest), e.targets, want)
				}
			}
			if e.out.prov() != ProvTransported {
				continue
			}
			transported++
			full := core.Assemble(b.G, e.abs.Dest, e.abs.F, core.AssembleOptions{
				Mode:       mode,
				Prefs:      func(u topo.NodeID) int { return e.prefs[u] },
				LiveEdges:  e.live,
				Iterations: e.abs.Iterations,
			})
			absEqual(t, tc.name+" class at "+b.G.Name(e.abs.Dest), e.abs, full)
		}
		if seeds == 0 || transported != tc.transported {
			t.Fatalf("%s: %d seeds, %d transported; want some and %d", tc.name, seeds, transported, tc.transported)
		}
	}
}

// TestColorKeyBucketsHoldOneSeed: on each orbit family, once every class is
// compressed, every isoIndex bucket holds exactly one seed. A class searches
// only from the seeds filed under its colour key, so no search starts from a
// seed of another role, where it could only fail or exhaust its budget; and
// a class whose search failed would be a second fresh seed in its bucket, so
// every search succeeded. Label-histogram buckets held several seeds on
// Datacenter{} and WAN{10,20,3}, each of which a colour hash then refused.
func TestColorKeyBucketsHoldOneSeed(t *testing.T) {
	for _, tc := range orbitFamilies() {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		transportPaths(t, b, nil)
		seeds := 0
		for key, bucket := range b.store.isoIndex {
			if len(bucket) != 1 {
				t.Errorf("%s: bucket %#x holds %d seeds", tc.name, key, len(bucket))
			}
			seeds += len(bucket)
		}
		t.Logf("%s: %d seeds in %d buckets", tc.name, seeds, len(b.store.isoIndex))
	}
}

// referenceSearchVectors is the per-class colour refinement as it was before
// labels were patched from the content word and folded with the reverse
// edge: every edge's label hashed in full, and each round reading both
// direction labels of an edge and rotating one, through three n-vectors. It
// returns the colours and their multiset hash.
func referenceSearchVectors(b *Builder, s *classSig) (colors []uint64, colHash uint64) {
	t := b.tab
	el := make([]uint64, len(t.edges))
	for i := range t.edges {
		el[i] = t.edgeLabel(s, int32(i))
	}

	n := b.G.NumNodes()
	col := make([]uint64, n)
	for u := range col {
		w := uint64(0)
		if int(s.dest) == u {
			w |= 1
		}
		if s.origin[u] {
			w |= 2
		}
		col[u] = mix64(w + 0x9e3779b97f4a7c15)
	}
	next := make([]uint64, n)
	mixed := make([]uint64, n)
	for r := 0; r < colorRounds; r++ {
		for u, c := range col {
			mixed[u] = mix64(c)
		}
		for u := range col {
			h := mixed[u]
			lo, hi := t.out(topo.NodeID(u))
			for i := lo; i < hi; i++ {
				in := el[t.rev[i]]
				h += mix64(el[i] ^ (in<<31 | in>>33) ^ mixed[t.edges[i].V])
			}
			next[u] = mix64(h)
		}
		col, next = next, col
	}
	for _, c := range col {
		colHash += mix64(c)
	}
	return col, colHash
}

// aclDiamond is the BGP diamond with a second destination and an egress ACL
// on a toward b1 that drops the first: its import-only route maps and its
// class-dependent ACL verdict are the label inputs no generated network
// varies by class.
func aclDiamond() *config.Network {
	n := bgpDiamond()
	n.Routers["d"].Originate = append(n.Routers["d"].Originate, netip.MustParsePrefix("10.1.0.0/24"))
	a := n.Routers["a"]
	a.Env.ACLs["NO-FIRST"] = &policy.ACL{Name: "NO-FIRST", Entries: []policy.PrefixEntry{
		{Action: policy.Deny, Prefix: netip.MustParsePrefix("10.0.0.0/24")},
		{Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32},
	}}
	a.IfaceACL["b1"] = "NO-FIRST"
	return n
}

// TestColorsMatchReference holds colorKey to the reference above on every
// class of the transport networks, the operational datacenter and
// aclDiamond: the colours are the reference's, and the key is their
// multiset hash, bit for bit.
func TestColorsMatchReference(t *testing.T) {
	nets := append(transportNetworks(),
		namedNetwork{"datacenter", netgen.Datacenter(netgen.DCOptions{})},
		namedNetwork{"bgp-diamond-acl", aclDiamond()})
	var sc isoScratch // one label buffer across every network, as on a pooled compiler
	for _, tc := range nets {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		for _, cls := range b.Classes() {
			s, err := b.classSignature(cls)
			if err != nil {
				t.Fatal(err)
			}
			colors, colHash := referenceSearchVectors(b, s)
			got, col := b.colorKey(&sc, s)
			if got != colHash {
				t.Fatalf("%s %s: colour key %#x, reference %#x", tc.name, cls.Prefix, got, colHash)
			}
			if !slices.Equal(col, colors) {
				t.Fatalf("%s %s: colours differ from the reference's", tc.name, cls.Prefix)
			}
		}
	}
}
