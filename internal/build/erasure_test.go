package build

import (
	"context"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
	"bonsai/internal/topo"
)

// tagNet is a hub d that imports from six eBGP spokes through one map,
// which raises the preference of routes carrying the matched community M
// and, for d's second prefix, drops them. Each spoke exports through its own
// map, and the six come in pairs that an erasing compiler cannot tell apart
// while their unerased renderings all differ: x1 and x2 add or delete only
// unmatched tags, x3 and x4 add M beside an unmatched add or delete, x5 and
// x6 delete M, one of them also adding an unmatched tag.
func tagNet() *config.Network {
	const (
		m  = protocols.Community(100<<16 | 1)
		u1 = protocols.Community(100<<16 | 2)
		u2 = protocols.Community(100<<16 | 3)
	)
	n := config.New("tags")
	n.AddRouter("d").EnsureBGP(65000)
	d := n.Routers["d"]
	d.Originate = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")}
	d.Env.CommunityLists["M"] = &policy.CommunityList{Name: "M", Communities: []protocols.Community{m}}
	d.Env.PrefixLists["SECOND"] = &policy.PrefixList{Name: "SECOND", Entries: []policy.PrefixEntry{
		{Action: policy.Permit, Prefix: netip.MustParsePrefix("10.0.1.0/24")},
	}}
	d.Env.RouteMaps["IMP"] = &policy.RouteMap{Name: "IMP", Clauses: []policy.Clause{
		{Seq: 5, Action: policy.Deny, Matches: []policy.Match{
			{Kind: policy.MatchCommunity, Arg: "M"}, {Kind: policy.MatchPrefix, Arg: "SECOND"},
		}},
		{Seq: 10, Action: policy.Permit, Matches: []policy.Match{{Kind: policy.MatchCommunity, Arg: "M"}},
			Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 200}}},
		{Seq: 20, Action: policy.Permit},
	}}
	exports := [][]policy.Set{
		{{Kind: policy.AddCommunity, Comm: u1}},
		{{Kind: policy.AddCommunity, Comm: u2}, {Kind: policy.DeleteCommunity, Comm: u1}},
		{{Kind: policy.AddCommunity, Comm: m}, {Kind: policy.AddCommunity, Comm: u1}},
		{{Kind: policy.DeleteCommunity, Comm: u2}, {Kind: policy.AddCommunity, Comm: m}},
		{{Kind: policy.DeleteCommunity, Comm: m}, {Kind: policy.AddCommunity, Comm: u2}},
		{{Kind: policy.DeleteCommunity, Comm: m}},
	}
	for i, sets := range exports {
		x := fmt.Sprintf("x%d", i+1)
		r := n.AddRouter(x)
		r.EnsureBGP(65001 + i)
		r.Originate = []netip.Prefix{netip.MustParsePrefix(fmt.Sprintf("10.1.%d.0/24", i))}
		exp := fmt.Sprintf("EXP-%d", i+1)
		r.Env.RouteMaps[exp] = &policy.RouteMap{Name: exp, Clauses: []policy.Clause{
			{Seq: 10, Action: policy.Permit, Sets: sets},
		}}
		n.AddLink("d", x)
		d.BGP.Neighbors[x] = &config.Neighbor{ImportMap: "IMP"}
		r.BGP.Neighbors["d"] = &config.Neighbor{ExportMap: exp}
	}
	return n
}

// lpSets renders what the prefs analysis reads of a route map for pfx: the
// local preferences it may set and whether the incoming one passes through.
func lpSets(env *policy.Env, name string, pfx netip.Prefix) string {
	vals := make(map[uint32]bool)
	env.LocalPrefValues(name, pfx, vals)
	return fmt.Sprint(slices.Sorted(maps.Keys(vals)), env.LocalPrefPassesThrough(name, pfx))
}

// TestErasedContentCompilesEqual holds the erased content labels to the
// compiler they describe. Per class (one per distinct policy key), every two
// edges whose labels edgeEq finds equal get equal edge keys from an erasing
// compiler, so one relation handle, drop verdict and redistribution, and
// their session maps yield the same local-preference sets. The datacenter and
// tagNet must each have such a pair whose maps render differently unerased:
// that is what erasure adds, and what the test would otherwise not reach.
func TestErasedContentCompilesEqual(t *testing.T) {
	for _, tc := range []struct {
		namedNetwork
		merges bool // some equal labels render differently unerased
	}{
		{namedNetwork{"datacenter", netgen.Datacenter(netgen.DCOptions{})}, true},
		{namedNetwork{"wan-10-20-3", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3})}, false},
		{namedNetwork{"wan-30-80-7", netgen.WAN(netgen.WANOptions{Backbone: 30, Sites: 80, SwitchesPerSite: 7})}, false},
		{namedNetwork{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{})}, false},
		{namedNetwork{"tags", tagNet()}, true},
	} {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		comp := b.NewCompiler(true)
		tab := b.tab
		unerased := make(map[rmRef]string)
		render := func(i int32) string {
			s := &tab.shapes[tab.shapeOf[i]]
			return mapContentSig(unerased, s.expEnv, s.expMap, nil) + "/" + mapContentSig(unerased, s.impEnv, s.impMap, nil)
		}
		type label struct {
			content           uint64
			exp, imp          int32 // match-outcome ids, -1 without a map
			aclDrop, onStatic bool
		}
		seen := make(map[string]bool)
		merged := 0
		for _, cls := range b.Classes() {
			s, err := b.classSignature(cls)
			if err != nil {
				t.Fatal(err)
			}
			if seen[s.fp[s.pol:]] {
				continue
			}
			seen[s.fp[s.pol:]] = true
			keys := b.EdgeKeyVec(comp, cls)
			first := make(map[label]int32)
			for i := range tab.edges {
				i := int32(i)
				if tab.shapeOf[i] < 0 {
					continue
				}
				r := &tab.recs[i]
				l := label{content: r.content, exp: -1, imp: -1, onStatic: s.statics.Has(int(i))}
				if rm := r.expRM; rm >= 0 {
					l.exp = s.fpIDs[rm]
				}
				if rm := r.impRM; rm >= 0 {
					l.imp = s.fpIDs[rm]
				}
				if a := r.acl; a >= 0 {
					l.aclDrop = !s.aclV[a]
				}
				j, ok := first[l]
				if !ok {
					first[l] = i
					continue
				}
				if !tab.edgeEq(s, s, i, j) {
					t.Fatalf("%s: edges %v and %v share a label edgeEq tells apart", tc.name, tab.edges[i], tab.edges[j])
				}
				if keys[i] != keys[j] {
					t.Fatalf("%s %s: edges %v and %v have equal erased labels and keys %+v, %+v",
						tc.name, cls.Prefix, tab.edges[i], tab.edges[j], keys[i], keys[j])
				}
				si, sj := &tab.shapes[tab.shapeOf[i]], &tab.shapes[tab.shapeOf[j]]
				if lpSets(si.impEnv, si.impMap, cls.Prefix) != lpSets(sj.impEnv, sj.impMap, cls.Prefix) ||
					lpSets(si.expEnv, si.expMap, cls.Prefix) != lpSets(sj.expEnv, sj.expMap, cls.Prefix) {
					t.Fatalf("%s %s: edges %v and %v have equal erased labels and different preference sets",
						tc.name, cls.Prefix, tab.edges[i], tab.edges[j])
				}
				if render(i) != render(j) {
					merged++
				}
			}
		}
		comp.Close()
		t.Logf("%s: %d policy keys, %d edge pairs equal only once erased", tc.name, len(seen), merged)
		if (merged > 0) != tc.merges {
			t.Fatalf("%s: %d edge pairs equal only once erased", tc.name, merged)
		}
	}
}

// tagMatchedDelta is a small datacenter whose leaves differ only in the
// unmatched tags they export, and a successor in which one leaf's tag is
// matched: spine-0-0 drops routes carrying it.
func tagMatchedDelta(t *testing.T) (net, succ *config.Network) {
	net = netgen.Datacenter(netgen.DCOptions{Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 6, Cores: 4, PrefixesPerLeaf: 2, VirtualIfaces: 1})
	succ = net.Fork()
	leaf := succ.Routers["leaf-0-01"]
	var tag protocols.Community
	for _, nb := range leaf.BGP.Neighbors {
		tag = leaf.Env.RouteMaps[nb.ExportMap].Clauses[0].Sets[0].Comm
	}
	spine := succ.Routers["spine-0-0"].Clone() // Fork shares routers
	spine.CloneEnv()
	succ.Routers["spine-0-0"] = spine
	spine.Env.CommunityLists["SEEN"] = &policy.CommunityList{Name: "SEEN", Communities: []protocols.Community{tag}}
	spine.Env.RouteMaps["DROP-SEEN"] = &policy.RouteMap{Name: "DROP-SEEN", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Deny, Matches: []policy.Match{{Kind: policy.MatchCommunity, Arg: "SEEN"}}},
		{Seq: 20, Action: policy.Permit},
	}}
	for _, nb := range spine.BGP.Neighbors {
		nb.ImportMap = "DROP-SEEN"
	}
	return net, succ
}

// TestTagMatchedByDeltaSplitsLabels applies tagMatchedDelta as the engine
// applies a delta: the predecessor compresses every class, and the successor
// adopts what it can on a compiler of its own (the matched set changed, so
// no predecessor compiler serves it). Before the delta two leaves' export
// edges share a content label; after it the leaf whose tag is matched has a
// label of its own. Every successor class through CompressTagged must equal
// CompressFresh's. The fresh and transported counts are pinned: with none
// transported the comparison would not reach transport over the split
// labels.
func TestTagMatchedByDeltaSplitsLabels(t *testing.T) {
	ctx := context.Background()
	net, succ := tagMatchedDelta(t)
	contentOf := func(b *Builder, spine, leaf string) uint64 {
		i, ok := b.G.EdgeIndex(b.G.MustLookup(spine), b.G.MustLookup(leaf))
		if !ok {
			t.Fatalf("no edge %s-%s", spine, leaf)
		}
		return b.tab.recs[i].content
	}
	b1, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	if contentOf(b1, "spine-0-1", "leaf-0-01") != contentOf(b1, "spine-0-1", "leaf-0-02") {
		t.Fatal("two leaves' export edges differ before any tag is matched")
	}
	comp1 := b1.NewCompiler(true)
	defer comp1.Close()
	for _, cls := range b1.Classes() {
		if _, err := b1.Compress(ctx, comp1, cls); err != nil {
			t.Fatal(err)
		}
	}

	b2, err := New(succ)
	if err != nil {
		t.Fatal(err)
	}
	if contentOf(b2, "spine-0-1", "leaf-0-01") == contentOf(b2, "spine-0-1", "leaf-0-02") {
		t.Fatal("a matched tag left two leaves' export edges with one content label")
	}
	comp, ref := b2.NewCompiler(true), b2.NewCompiler(true)
	defer comp.Close()
	defer ref.Close()
	ad, err := b2.AdoptFrom(ctx, comp, b1, AdoptDelta{TouchedRouters: []string{"spine-0-0"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range b2.Classes() {
		got, _, err := b2.CompressTagged(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b2.CompressFresh(ctx, ref, cls)
		if err != nil {
			t.Fatal(err)
		}
		absEqual(t, cls.Prefix.String(), got, want)
	}
	st := b2.AbstractionCacheStats()
	t.Logf("successor: %d classes, %d adopted, %d invalidated, %d fresh, %d transported",
		len(b2.Classes()), ad.Adopted, ad.Invalidated, st.Fresh, st.Transported)
	if st.Fresh != 7 || st.Transported != 14 {
		t.Fatalf("successor: %d fresh, %d transported; want 7 and 14", st.Fresh, st.Transported)
	}
}

// TestForeignUniverseCompilerNeverTransports compresses tagMatchedDelta's
// predecessor on an erasing compiler of its successor, whose universe keeps
// the tag the predecessor's labels leave out. Its relations tell apart edges
// whose labels are equal, so nothing may be transported, and every class must
// equal CompressFresh's on that compiler's universe.
func TestForeignUniverseCompilerNeverTransports(t *testing.T) {
	ctx := context.Background()
	net, succ := tagMatchedDelta(t)
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(succ)
	if err != nil {
		t.Fatal(err)
	}
	comp, ref := other.NewCompiler(true), other.NewCompiler(true)
	defer comp.Close()
	defer ref.Close()
	b.onTransport = func(*absEntry, []topo.NodeID, []int32) {
		t.Fatal("transported on a compiler over another Builder's erased universe")
	}
	for _, cls := range b.Classes() {
		got, _, err := b.CompressTagged(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.CompressFresh(ctx, ref, cls)
		if err != nil {
			t.Fatal(err)
		}
		absEqual(t, cls.Prefix.String(), got, want)
	}
	if st := b.AbstractionCacheStats(); st.Transported != 0 || len(b.store.isoIndex) != 0 {
		t.Fatalf("%d fresh, %d transported, %d colour keys; want nothing transported or indexed",
			st.Fresh, st.Transported, len(b.store.isoIndex))
	}
}

// TestFullUniverseCompilerNeverTransports: content labels describe only the
// erasing compiler's relations, so on a full-universe compiler every
// distinct datacenter class refines, and no colour key, seed or orbit is
// made.
func TestFullUniverseCompilerNeverTransports(t *testing.T) {
	b, err := New(netgen.Datacenter(netgen.DCOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(false)
	defer comp.Close()
	b.onTransport = func(*absEntry, []topo.NodeID, []int32) {
		t.Fatal("transported on a full-universe compiler")
	}
	for _, cls := range b.Classes() {
		if _, err := b.Compress(context.Background(), comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	st := b.AbstractionCacheStats()
	if st.Fresh != 171 || st.Transported != 0 || len(b.store.isoIndex) != 0 || len(b.store.orbits) != 0 {
		t.Fatalf("%d fresh, %d transported, %d colour keys, %d orbits; want 171, 0, 0, 0",
			st.Fresh, st.Transported, len(b.store.isoIndex), len(b.store.orbits))
	}
}
