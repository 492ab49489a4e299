package build

import (
	"context"
	"math/bits"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// searchSignature is the class's signature with the colour key and colours
// the search reads, as CompressTagged's miss path fills them.
func searchSignature(t *testing.T, b *Builder, cls ec.Class) *classSig {
	t.Helper()
	s, err := b.classSignature(cls)
	if err != nil {
		t.Fatal(err)
	}
	s.key, s.col = b.colorKey(new(isoScratch), s)
	return s
}

// isoPair returns the signatures of the Builder's first class and of the
// last class the search relates to it (the first class itself when there is
// no other), with the permutation found.
func isoPair(t *testing.T, b *Builder) (sa, sb *classSig, pi []topo.NodeID) {
	t.Helper()
	classes := b.Classes()
	sa = searchSignature(t, b, classes[0])
	for i := len(classes) - 1; i >= 0; i-- {
		sb = searchSignature(t, b, classes[i])
		if pi, _ = b.findIso(new(isoScratch), sa, sb); pi != nil {
			return sa, sb, pi
		}
	}
	t.Fatal("no class is related to the first, not even itself")
	return nil, nil, nil
}

// TestVerifyIsoRefusesWrongPermutations lies to the sweep every transport's
// soundness rests on. The permutation the search finds must verify, with the
// edge permutation it induces; every one-step corruption of it — or of the
// class it maps onto — must be refused, which is what sends Compress to
// CompressFresh.
func TestVerifyIsoRefusesWrongPermutations(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *config.Network
	}{
		{"fattree", netgen.Fattree(8, netgen.PolicyShortestPath)},
		{"ring", netgen.Ring(24)},
		{"mesh", netgen.FullMesh(12)},
		{"bgp-diamond", bgpDiamond()},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{
			Spines: 3, Leaves: 4, ExtPerLeaf: 2, PrefixesPerExt: 2,
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			sa, sb, pi := isoPair(t, b)
			n := len(pi)

			var sc isoScratch // one across every sweep below, as on a compiler
			epi, ok := b.verifyIso(&sc, sa, sb, pi)
			if !ok {
				t.Fatal("the search's own permutation does not verify")
			}
			for i, e := range b.G.Edges() {
				if f, ok := b.G.EdgeIndex(pi[e.U], pi[e.V]); !ok || int(epi[i]) != f {
					t.Fatalf("edge %d %v: epi = %d, EdgeIndex of its image = %d (%v)", i, e, epi[i], f, ok)
				}
			}

			refused := func(what string, sb *classSig, pi []topo.NodeID) {
				t.Helper()
				if _, ok := b.verifyIso(&sc, sa, sb, pi); ok {
					t.Fatalf("%s: accepted", what)
				}
			}
			// Two routers of different role trade images. The reference
			// colours are isomorphism invariants, so a differing pair has no
			// automorphism between its images and the swapped π is a
			// bijection that must fail on some edge.
			colors, _ := referenceSearchVectors(b, sa)
			for u := 0; u < n; u++ {
				for d := 1; d < n; d++ {
					if v := (u + d) % n; colors[u] != colors[v] {
						bad := slices.Clone(pi)
						bad[u], bad[v] = pi[v], pi[u]
						refused("routers of different role swapped", sb, bad)
						break
					}
				}
			}
			// A router lands on the image of one it is not adjacent to. Where
			// the two share every neighbour (two cores of a fat-tree plane)
			// each edge still has an image, and only π no longer being a
			// bijection gives the lie away.
			for u := 0; u < n; u++ {
				for x := 0; x < n; x++ {
					if x != u && !b.G.HasEdge(topo.NodeID(u), topo.NodeID(x)) {
						bad := slices.Clone(pi)
						bad[u] = pi[x]
						refused("router mapped onto a non-neighbour's image", sb, bad)
					}
				}
			}
			// The destination's image moves (π stays a bijection), or the
			// target class's destination does and nothing else.
			for u := 0; u < n; u++ {
				if topo.NodeID(u) != sa.dest {
					bad := slices.Clone(pi)
					bad[u], bad[sa.dest] = pi[sa.dest], pi[u]
					refused("destination's image moved", sb, bad)
					moved := *sb
					moved.dest = pi[u]
					refused("target destination moved", &moved, pi)
				}
			}
			// One origin bit of the target class flips.
			for w := 0; w < n; w++ {
				flipped := *sb
				flipped.origin = slices.Clone(sb.origin)
				flipped.origin[w] = !flipped.origin[w]
				refused("origin bit flipped", &flipped, pi)
			}
			// One edge of the target class changes label and no edge goes
			// missing: a static route appears on it, or leaves it.
			for f := range b.G.Edges() {
				relabelled := *sb
				relabelled.statics = topo.NewEdgeSet(b.G.NumEdges())
				copy(relabelled.statics, sb.statics)
				relabelled.statics[f/64] ^= 1 << (f % 64)
				refused("edge label changed", &relabelled, pi)
			}
		})
	}
}

// TestTransportBytes is a ceiling on what one symmetry transport allocates,
// in bytes per directed edge: on Fattree(12) (1 728 edges) every class after
// the first is transported, 6.5 × |E| bytes each since the mapped liveness
// is one bit per edge and the sweep's tables, its edge permutation, the
// label buffer, the search vectors, the composed π and the mapped partition
// are the compiler's scratch (7.4 while the liveness was one bool per edge;
// 8.1 while compose cloned π; 16.0 before, when 57 of the 71
// orbit hits already built no label vector, colours or search tables; 27.0
// when every transport searched; 50.3 while core.Assemble still sorted one
// 24-byte record per live edge). The ceiling leaves 25 % above 6.5: an
// edge index per edge (4 × |E|) allocated per transport, in the sweep or
// anywhere else, fails here by name.
func TestTransportBytes(t *testing.T) {
	b, err := New(netgen.Fattree(12, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := b.NewCompiler(true)
	classes := b.Classes()
	if _, err := b.Compress(ctx, comp, classes[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cls := range classes[1:] {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	rest := len(classes) - 1
	if got := b.AbstractionCacheStats().Transported; got != int64(rest) {
		t.Fatalf("%d of %d classes transported", got, rest)
	}
	const ceiling = 8.1 // bytes per directed edge per transport
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(rest) / float64(b.G.NumEdges())
	t.Logf("one transport allocates %.1f × |E| bytes (|E| = %d)", perEdge, b.G.NumEdges())
	if perEdge > ceiling {
		t.Fatalf("one transport on Fattree(12) allocates %.1f × |E| bytes, ceiling %.1f × |E|", perEdge, ceiling)
	}
}

// TestLyingOrbitFallsBack corrupts one generator of a Fattree(8) seed once
// its orbit exists. The generator g is the last on the Schreier path to the
// destination w of a class not yet compressed; the images of w's preimage and
// of the router g sends onto w's pod twin trade places. g stays a bijection,
// and even a symmetry of the bare graph (twins share every neighbour), but
// the π composed through it now maps the seed's destination onto the twin.
// That class must be refused by verifyIso and served by the search instead
// (or fresh), with the abstraction CompressFresh computes, and so must every
// class after it. An orbit path that skipped verifyIso, or checked only that
// edges map onto edges, would transport through the lie.
func TestLyingOrbitFallsBack(t *testing.T) {
	b, err := New(netgen.Fattree(8, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comp := b.NewCompiler(true)
	check := func(cls ec.Class) Provenance {
		t.Helper()
		got, prov, err := b.CompressTagged(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.CompressFresh(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		absEqual(t, cls.Prefix.String(), got, want)
		return prov
	}
	neighbours := func(u topo.NodeID) []topo.NodeID { return slices.Sorted(slices.Values(b.G.Succ(u))) }

	classes := b.Classes()
	lied := false
	for i := 0; i < len(classes); i++ {
		check(classes[i])
		if lied || len(b.store.orbits) == 0 {
			continue
		}
		o := b.store.orbits[0].orbit
		for j := i + 1; j < len(classes) && !lied; j++ {
			w, err := b.destOf(classes[j])
			if err != nil {
				t.Fatal(err)
			}
			if !o.reaches(w) {
				continue
			}
			g := o.gens[o.via[w]]
			for z, x := range g {
				if x != w && slices.Equal(neighbours(x), neighbours(w)) {
					p := o.pre[w]
					g[p], g[z] = g[z], g[p]
					lied = true
					break
				}
			}
			if !lied {
				t.Fatalf("%s has no twin", b.G.Name(w))
			}
			classes[i+1], classes[j] = classes[j], classes[i+1]
			prov := check(classes[i+1])
			if fromOrbit := heldEntry(b, classes[i+1]).out == outOrbit; (prov != ProvTransported && prov != ProvFresh) || fromOrbit {
				t.Fatalf("%s: served %v (from the orbit: %v) through a corrupted generator", classes[i+1].Prefix, prov, fromOrbit)
			}
			i++
		}
	}
	if !lied {
		t.Fatal("no class's destination was ever in the seed's orbit")
	}
}

// TestVerifiedPermutationsMoveACLs pins a finding about what verifyIso
// preserves: not whether an edge carries an ACL. edgeEq reads a missing ACL
// as one that permits the class, so an ACL that permits it is equal to none.
// On Ring(6) with a permit-all ACL on r-0000's interface toward r-0001, every
// π the search finds from r-0000's class verifies (five of them), and each
// maps that edge onto an edge with no ACL. A sweep restricted to the edges
// that carry a policy must therefore also look at the edges whose image
// carries one.
func TestVerifiedPermutationsMoveACLs(t *testing.T) {
	net := netgen.Ring(6)
	r := net.Routers["r-0000"]
	r.Env.ACLs["PERMIT-ALL"] = &policy.ACL{Name: "PERMIT-ALL", Entries: []policy.PrefixEntry{
		{Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32},
	}}
	r.IfaceACL["r-0001"] = "PERMIT-ALL"
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	acl, ok := b.G.EdgeIndex(b.G.MustLookup("r-0000"), b.G.MustLookup("r-0001"))
	if !ok || b.tab.recs[acl].acl < 0 {
		t.Fatal("the edge toward r-0001 carries no ACL in the Builder's tables")
	}
	var sa *classSig
	var others []*classSig
	for _, cls := range b.Classes() {
		s := searchSignature(t, b, cls)
		if b.G.Name(s.dest) == "r-0000" {
			sa = s
		} else {
			others = append(others, s)
		}
	}
	verified, moved := 0, 0
	for _, sb := range others {
		pi, epi := b.findIso(new(isoScratch), sa, sb)
		if pi == nil {
			continue
		}
		verified++
		if b.tab.recs[epi[acl]].acl < 0 {
			moved++
		}
	}
	if verified != 5 || moved != verified {
		t.Fatalf("%d verified permutations, %d map the ACL edge onto an ACL-free edge; want 5 and 5", verified, moved)
	}
}

// ringWith returns Ring(24) with one label that only r-0012's class sees,
// on r-0000's side of its link to r-0001: an egress ACL that denies the
// class ("acl"), a static route for it ("static"), or ("filter") on every
// router's sessions an export map denying what the router's BLOCK list
// holds, the class's prefix at r-0000 and nothing elsewhere. Every other
// class sees the plain ring, so its symmetries still become generators; the
// π an orbit composes for r-0012's class maps a plain edge onto a marked one,
// and only the clause of verifyComposed that reads that label can refuse it.
func ringWith(kind string) *config.Network {
	net := netgen.Ring(24)
	r := net.Routers["r-0000"]
	p := net.Routers["r-0012"].Originate[0]
	switch kind {
	case "acl":
		r.Env.ACLs["NO-12"] = &policy.ACL{Name: "NO-12", Entries: []policy.PrefixEntry{
			{Action: policy.Deny, Prefix: p},
			{Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32},
		}}
		r.IfaceACL["r-0001"] = "NO-12"
	case "static":
		r.Statics = append(r.Statics, config.StaticRoute{Prefix: p, NextHop: "r-0001"})
	case "filter":
		for name, x := range net.Routers {
			block := &policy.PrefixList{Name: "BLOCK"}
			if name == "r-0000" {
				block.Entries = []policy.PrefixEntry{{Action: policy.Permit, Prefix: p}}
			}
			x.Env.PrefixLists["BLOCK"] = block
			x.Env.RouteMaps["FILTER"] = &policy.RouteMap{Name: "FILTER", Clauses: []policy.Clause{
				{Seq: 10, Action: policy.Deny, Matches: []policy.Match{{Kind: policy.MatchPrefix, Arg: "BLOCK"}}},
				{Seq: 20, Action: policy.Permit},
			}}
			for _, nb := range x.BGP.Neighbors {
				nb.ExportMap = "FILTER"
			}
		}
	}
	return net
}

// TestComposedCheckAgreesWithVerifyIso: on every orbit family and on the
// three marked rings, every π an orbit proposes gets the same verdict and
// the same edge permutation from verifyComposed as from the full verifyIso,
// accepted or refused. Each signature's static count, which the check
// compares, is the size of its statics mask, and each miss is served by the
// first proposal accepted, in orbit order. The datacenter must see a
// proposal refused for its count of static edges, and every marked ring
// must see r-0012's refused, or the clauses that refuse them are untested
// here.
func TestComposedCheckAgreesWithVerifyIso(t *testing.T) {
	fams := []namedNetwork{{"ring-24-acl", ringWith("acl")}, {"ring-24-static", ringWith("static")}, {"ring-24-filter", ringWith("filter")}}
	for _, tc := range orbitFamilies() {
		fams = append(fams, namedNetwork{tc.name, tc.net})
	}
	for fi, tc := range fams {
		marked := fi < 3
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		var served *absEntry
		b.onTransport = func(seed *absEntry, _ []topo.NodeID, _ []int32) { served = seed }
		comp := b.NewCompiler(true)
		proposed, refused, staticRefused := 0, 0, 0
		for _, cls := range b.Classes() {
			sig, err := b.classSignature(cls)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(slices.Collect(sig.statics.All())); sig.nStatic != n {
				t.Fatalf("%s %s: nStatic %d, statics mask holds %d", tc.name, cls.Prefix, sig.nStatic, n)
			}
			var first *absEntry // the first seed whose composed π verifies
			before := refused
			if _, hit := b.store.entries[sig.fp]; !hit {
				for _, c := range b.store.orbits {
					if !c.orbit.reaches(sig.dest) {
						continue
					}
					proposed++
					pi := c.orbit.compose(new(isoScratch), sig.dest)
					full, ok := b.verifyIso(new(isoScratch), c.sig, sig, pi)
					cpi, cheap, cheapOK := b.verifyComposed(new(isoScratch), c.orbit, c.sig, sig)
					if cheapOK != ok || !slices.Equal(cheap, full) || ok && !slices.Equal(cpi, pi) {
						t.Fatalf("%s %s: verifyComposed says %v, verifyIso %v (edge permutations equal: %v)",
							tc.name, cls.Prefix, cheapOK, ok, slices.Equal(cheap, full))
					}
					if !ok {
						refused++
						if c.sig.nStatic != sig.nStatic {
							staticRefused++
						}
					}
					if ok && first == nil {
						first = c
					}
				}
				if marked && b.G.Name(sig.dest) == "r-0012" && (first != nil || refused == before) {
					t.Fatalf("%s: r-0012's class has a composed π that verifies, or none was proposed", tc.name)
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
		t.Logf("%s: %d orbit proposals, %d refused, %d of them for their static count; %d of %d edges guarded",
			tc.name, proposed, refused, staticRefused, guardedEdges(b), b.G.NumEdges())
		if tc.name == "datacenter" && staticRefused == 0 {
			t.Fatal("datacenter: no proposal refused for its static count")
		}
	}
}

// guardedEdges counts the edges in b's guarded set.
func guardedEdges(b *Builder) (n int) {
	for _, w := range b.tab.guarded {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestComposedPermutationsMoveACLs is TestVerifiedPermutationsMoveACLs for
// the orbit path: on ringWith("acl"), the π an orbit composes for r-0012's
// class maps an ACL-free edge onto the edge whose ACL denies that class, and
// the ACL edge onto an ACL-free one, whose verdict the seed's class shares.
// Checking only the edges that carry an ACL would accept it; verifyComposed
// must refuse it, and every class must equal CompressFresh's.
func TestComposedPermutationsMoveACLs(t *testing.T) {
	b, err := New(ringWith("acl"))
	if err != nil {
		t.Fatal(err)
	}
	acl, _ := b.G.EdgeIndex(b.G.MustLookup("r-0000"), b.G.MustLookup("r-0001"))
	ctx := context.Background()
	comp := b.NewCompiler(true)
	defer comp.Close()
	checked := false
	for _, cls := range b.Classes() {
		sig, err := b.classSignature(cls)
		if err != nil {
			t.Fatal(err)
		}
		if b.G.Name(sig.dest) == "r-0012" {
			for _, c := range b.store.orbits {
				if !c.orbit.reaches(sig.dest) {
					continue
				}
				epi, _ := b.sweepIso(new(isoScratch), c.sig, sig, c.orbit.compose(new(isoScratch), sig.dest))
				if epi == nil || b.tab.recs[epi[acl]].acl >= 0 || b.tab.recs[slices.Index(epi, int32(acl))].acl >= 0 {
					t.Fatal("the composed π does not move the ACL onto a plain edge and a plain edge onto it")
				}
				if _, _, ok := b.verifyComposed(new(isoScratch), c.orbit, c.sig, sig); ok {
					t.Fatal("verifyComposed accepts a π that maps a plain edge onto one whose ACL denies the class")
				}
				checked = true
			}
		}
		got, prov, err := b.CompressTagged(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.CompressFresh(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		absEqual(t, cls.Prefix.String()+" ("+prov.String()+")", got, want)
	}
	if !checked {
		t.Fatal("no orbit reached r-0012 before its class")
	}
}
