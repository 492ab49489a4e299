package build

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"

	"bonsai/internal/config"
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

// TestTransportPermutationsMatchParent compresses every class of each
// network in order and, for each transported class, repeats the candidate
// scan Compress ran: the first seed in the class's histogram bucket the
// search relates it to, the permutation π and the edge permutation the sweep
// yields are hashed with the two prefixes. The digests in
// testdata/transport_digests.txt were captured before the search compared
// one folded label word per placed neighbour instead of two exact edge
// labels, so a search that prunes differently, or picks another seed, fails
// here (a mismatch prints the new lines).
func TestTransportPermutationsMatchParent(t *testing.T) {
	want, err := os.ReadFile("testdata/transport_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var got strings.Builder
	for _, tc := range transportNetworks() {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		comp := b.NewCompiler(true)
		h := sha256.New()
		seedPrefix := make(map[*absEntry]string)
		transported := 0
		for _, cls := range b.Classes() {
			_, prov, err := b.CompressTagged(ctx, comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			switch prov {
			case ProvFresh:
				seedPrefix[b.store.entries[b.fpByPrefix[cls.Prefix]]] = cls.Prefix.String()
			case ProvTransported:
				sig, err := b.classSignature(cls)
				if err != nil {
					t.Fatal(err)
				}
				b.ensureLabels(sig)
				found := false
				for _, c := range b.store.isoIndex[sig.histo] {
					if pi, epi := b.findIso(c.sig, sig); pi != nil {
						fmt.Fprintln(h, cls.Prefix, seedPrefix[c], pi, epi)
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: %s was transported, but no seed relates to it on a second search", tc.name, cls.Prefix)
				}
				transported++
			}
		}
		comp.Close()
		fmt.Fprintf(&got, "%s classes=%d transported=%d sha256=%x\n", tc.name, len(b.Classes()), transported, h.Sum(nil))
	}
	if got.String() != string(want) {
		t.Fatalf("transport permutations differ from testdata/transport_digests.txt:\n%s", got.String())
	}
}

// referenceSearchVectors is the per-class preprocessing as it was before
// labels were patched from the content word and folded with the reverse
// edge: every edge's label hashed in full, the histogram summed over all of
// them, and colour refinement reading both direction labels of an edge and
// rotating one, through three n-vectors.
func referenceSearchVectors(b *Builder, s *classSig) (histo uint64, colors []uint64, colHash uint64) {
	t := b.tab
	el := make([]uint64, len(t.edges))
	h := uint64(14695981039346656037)
	for i := range t.edges {
		w := t.edgeLabel(s, int32(i))
		el[i] = w
		h += mix64(w)
	}
	norig := 0
	for _, o := range s.origin {
		if o {
			norig++
		}
	}
	histo = mix64(h ^ uint64(norig))

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
	return histo, col, colHash
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

// TestColorsMatchReference holds ensureLabels and ensureColors to the
// reference above on every class of the transport networks, the operational
// datacenter and aclDiamond: the colours and their multiset hash are
// bit-identical, and the label histograms group the classes into the same
// buckets (the histogram itself moves by a class-independent constant).
func TestColorsMatchReference(t *testing.T) {
	nets := append(transportNetworks(),
		namedNetwork{"datacenter", netgen.Datacenter(netgen.DCOptions{})},
		namedNetwork{"bgp-diamond-acl", aclDiamond()})
	for _, tc := range nets {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		gotBucket, refBucket := make(map[uint64]int), make(map[uint64]int)
		for ci, cls := range b.Classes() {
			s, err := b.classSignature(cls)
			if err != nil {
				t.Fatal(err)
			}
			histo, colors, colHash := referenceSearchVectors(b, s)
			got := b.ensureColors(s)
			for u := range colors {
				if got[u] != colors[u] {
					t.Fatalf("%s %s: node %d colour %#x, reference %#x", tc.name, cls.Prefix, u, got[u], colors[u])
				}
			}
			if s.colHash != colHash {
				t.Fatalf("%s %s: colour hash %#x, reference %#x", tc.name, cls.Prefix, s.colHash, colHash)
			}
			// Class ci opens a bucket or joins one; both sides must agree on
			// which.
			g, gok := gotBucket[s.histo]
			r, rok := refBucket[histo]
			if gok != rok || g != r {
				t.Fatalf("%s %s: histogram bucket (%d, %v), reference (%d, %v)", tc.name, cls.Prefix, g, gok, r, rok)
			}
			if !gok {
				gotBucket[s.histo], refBucket[histo] = ci, ci
			}
		}
	}
}
