package build

// The provenance matrix (ROADMAP item 1): one test per way the Builder can
// come to hold an abstraction, each holding every abstraction of that
// provenance to the same two oracles and failing when its cell is empty.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/dataplane"
	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/oracle"
	"bonsai/internal/policy"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// checkConditions holds abs, as b's abstraction of cls, to the paper's local
// conditions (Figure 4, checked on b's graph and edge keys, not on whatever
// network abs was computed over) and to what they promise: a router delivers
// to the class on the concrete network exactly when some copy of its group
// does on the abstract one.
func checkConditions(t *testing.T, b *Builder, comp *policy.Compiler, cls ec.Class, abs *core.Abstraction) {
	t.Helper()
	mode := core.ModeEffective
	if b.HasBGP() {
		mode = core.ModeBGP
	}
	c := &oracle.Checker{Abs: abs, G: b.G, EdgeKey: b.EdgeKeyFunc(comp, cls)}
	if err := c.CheckAll(mode, b.PrefsFunc(cls)); err != nil {
		t.Errorf("class %v: %v", cls.Prefix, err)
	}

	reachable := func(inst *srp.Instance, err error, acl func(u, v topo.NodeID) bool) []bool {
		t.Helper()
		if err != nil {
			t.Fatalf("class %v: %v", cls.Prefix, err)
		}
		sol, err := srp.Solve(inst)
		if err != nil {
			t.Fatalf("class %v: %v", cls.Prefix, err)
		}
		return dataplane.New(inst, sol, acl).ReachableSet()
	}
	inst, err := b.Instance(cls)
	concrete := reachable(inst, err, b.ACLPermitFunc(cls))
	inst, err = b.AbstractInstance(cls, abs)
	abstract := reachable(inst, err, b.AbstractACLPermitFunc(cls, abs))
	for u, want := range concrete {
		got := false
		for _, c := range abs.Copies[abs.F[u]] {
			got = got || abstract[c]
		}
		if got != want {
			t.Errorf("class %v: %s reaches it on the concrete network: %v, on the abstract one: %v",
				cls.Prefix, b.G.Name(topo.NodeID(u)), want, got)
		}
	}
}

// compressAll compresses every class of b in order and returns what each
// call reported as its provenance.
func compressAll(t *testing.T, b *Builder, comp *policy.Compiler) []Provenance {
	t.Helper()
	provs := make([]Provenance, 0, len(b.Classes()))
	for _, cls := range b.Classes() {
		_, prov, err := b.CompressTagged(context.Background(), comp, cls)
		if err != nil {
			t.Fatalf("compress %v: %v", cls.Prefix, err)
		}
		provs = append(provs, prov)
	}
	return provs
}

// checkHeld checks the abstraction b holds for each class pick selects and
// fails when that is none: the cell the calling test fills would be empty.
func checkHeld(t *testing.T, b *Builder, comp *policy.Compiler, cell string, pick func(i int, e *absEntry) bool) {
	t.Helper()
	n := 0
	for i, cls := range b.Classes() {
		if e, ok := b.cachedEntry(cls); ok && pick(i, e) {
			n++
			checkConditions(t, b, comp, cls, e.abs)
		}
	}
	if n == 0 {
		t.Fatalf("no %s abstraction: the cell this test fills is empty", cell)
	}
	t.Logf("%d %s abstractions checked", n, cell)
}

// smallDatacenter is the two-cluster datacenter internal/oracle's
// TestGeneratedNetworksSatisfyConditions compresses: several prefixes per
// leaf, so most classes are identity hits.
func smallDatacenter() *config.Network {
	return netgen.Datacenter(netgen.DCOptions{
		Clusters: 2, SpinesPerClus: 2, LeavesPerClus: 3, Cores: 2, Borders: 1,
		PrefixesPerLeaf: 2, VirtualIfaces: 2, StaticPatterns: 3, TagGroups: 3,
	})
}

func newBuilder(t *testing.T, cfg *config.Network) (*Builder, *policy.Compiler) {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	t.Cleanup(comp.Close)
	return b, comp
}

// fattreeCoreLinkFlap returns Fattree(6) twice, alike but for the state of
// its first core link.
func fattreeCoreLinkFlap(t *testing.T) (up, down *config.Network) {
	t.Helper()
	up = netgen.Fattree(6, netgen.PolicyShortestPath)
	down = up.Clone()
	for i, l := range down.Links {
		if strings.HasPrefix(l.A, "core-") || strings.HasPrefix(l.B, "core-") {
			down.Links[i].Down = true
			return up, down
		}
	}
	t.Fatal("the fat-tree has no core link")
	return nil, nil
}

// checkAdopted compresses every class of from, adopts what it can into a
// Builder of to, and checks everything adopted on to's graph and edge keys.
func checkAdopted(t *testing.T, cell string, from, to *config.Network) {
	t.Helper()
	old, oldComp := newBuilder(t, from)
	compressAll(t, old, oldComp)
	b, comp := newBuilder(t, to)
	if _, err := b.AdoptFrom(context.Background(), comp, old, AdoptDelta{}); err != nil {
		t.Fatal(err)
	}
	checkHeld(t, b, comp, cell, func(_ int, e *absEntry) bool { return e.out.prov() == ProvAdopted })
}

// TestAdoptedAbstractionsSatisfyConditions: every abstraction carried across
// one core-link-down by AdoptFrom.
func TestAdoptedAbstractionsSatisfyConditions(t *testing.T) {
	up, down := fattreeCoreLinkFlap(t)
	checkAdopted(t, "adopted", up, down)
}

// TestAdoptedAfterLinkUpSatisfyConditions: the other direction — the network
// compressed with the core link down, everything AdoptFrom carries across its
// coming up (the successor gains edges no representative names).
func TestAdoptedAfterLinkUpSatisfyConditions(t *testing.T) {
	up, down := fattreeCoreLinkFlap(t)
	checkAdopted(t, "adopted-after-link-up", down, up)
}

// TestColourSplitAbstractionsSatisfyConditions: every abstraction whose
// groups the greedy self-loop-freedom colouring divided. An odd ring splits
// in every class: each non-destination group is a pair of routers equidistant
// from the destination, and the pair farthest from it is adjacent.
func TestColourSplitAbstractionsSatisfyConditions(t *testing.T) {
	b, comp := newBuilder(t, netgen.Ring(13))
	compressAll(t, b, comp)
	checkHeld(t, b, comp, "colour-split", func(_ int, e *absEntry) bool { return e.abs.ColorSplits > 0 })
}

// TestMultiPreferenceAbstractionsSatisfyConditions: every abstraction of two
// networks whose every class has routers of several local preferences, so
// that ∀∀ binds, by whatever path compression took to it. Prefer-bottom
// Fattree(6) is answered fresh and by transport, the spine-leaf preferring
// external routes fresh, by transport and from the identity cache; each of
// those paths must occur, or the cell it fills is empty.
func TestMultiPreferenceAbstractionsSatisfyConditions(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *config.Network
		want []Provenance
	}{
		{"fattree6-prefer-bottom", netgen.Fattree(6, netgen.PolicyPreferBottom), []Provenance{ProvFresh, ProvTransported}},
		{"spineleaf-prefer-external", netgen.SpineLeaf(netgen.SpineLeafOptions{PreferExternal: true}),
			[]Provenance{ProvFresh, ProvTransported, ProvCached}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, comp := newBuilder(t, tc.net)
			provs := compressAll(t, b, comp)
			count := make(map[Provenance]int)
			for _, p := range provs {
				count[p]++
			}
			for _, p := range tc.want {
				if count[p] == 0 {
					t.Fatalf("no %v abstraction among %v", p, count)
				}
			}
			t.Logf("provenances %v", count)
			checkHeld(t, b, comp, "multi-preference", func(int, *absEntry) bool { return true })
		})
	}
}

// TestTransportedAbstractionsSatisfyConditions: every abstraction a verified
// permutation carried from a symmetric class's.
func TestTransportedAbstractionsSatisfyConditions(t *testing.T) {
	b, comp := newBuilder(t, netgen.Fattree(6, netgen.PolicyShortestPath))
	provs := compressAll(t, b, comp)
	checkHeld(t, b, comp, "transported", func(i int, _ *absEntry) bool { return provs[i] == ProvTransported })
}

// TestIdentityHitAbstractionsSatisfyConditions: every class whose first
// compression was answered with another class's abstraction.
func TestIdentityHitAbstractionsSatisfyConditions(t *testing.T) {
	b, comp := newBuilder(t, smallDatacenter())
	provs := compressAll(t, b, comp)
	checkHeld(t, b, comp, "identity-hit", func(i int, _ *absEntry) bool { return provs[i] == ProvCached })
}

// TestRecompressedAbstractionsSatisfyConditions: every class a budget of half
// the live bytes evicted, compressed again. (The fat-tree, because the small
// datacenter's entries are nearly all pinned transport seeds, which no
// budget evicts.)
func TestRecompressedAbstractionsSatisfyConditions(t *testing.T) {
	b, comp := newBuilder(t, netgen.Fattree(6, netgen.PolicyShortestPath))
	compressAll(t, b, comp)
	b.SetAbstractionBudget(b.AbstractionCacheStats().LiveBytes / 2)
	if b.AbstractionCacheStats().Evictions == 0 {
		t.Fatal("half the live bytes as budget evicted nothing")
	}
	evicted := make([]bool, len(b.Classes()))
	for i, cls := range b.Classes() {
		_, held := b.cachedEntry(cls)
		evicted[i] = !held
	}
	b.SetAbstractionBudget(0)
	compressAll(t, b, comp)
	checkHeld(t, b, comp, "evicted-then-recompressed", func(i int, _ *absEntry) bool { return evicted[i] })
}

// TestLoadedAbstractionsSatisfyConditions: everything a fresh Builder of the
// same configuration installs from a sealed relation store. The sealed
// Builder took one link down by AdoptFrom first, so the store holds entries
// carried across the delta beside freshly compressed ones, and every one of
// them must install.
func TestLoadedAbstractionsSatisfyConditions(t *testing.T) {
	up := smallDatacenter()
	down := up.Clone()
	down.Links[down.FindLink("spine-0-1", "core-01")].Down = true
	old, oldComp := newBuilder(t, up)
	compressAll(t, old, oldComp)
	sealed, sealedComp := newBuilder(t, down)
	st, err := sealed.AdoptFrom(context.Background(), sealedComp, old, AdoptDelta{})
	if err != nil || st.Unchanged == 0 {
		t.Fatalf("the link-down adopted nothing unchanged: %+v, %v", st, err)
	}
	compressAll(t, sealed, sealedComp)
	path := filepath.Join(t.TempDir(), "relstore.bin")
	if err := sealed.SaveRelationStoreFile(path, nil); err != nil {
		t.Fatal(err)
	}

	b, comp := newBuilder(t, down)
	if _, err := b.LoadRelationStoreFile(path, nil); err != nil {
		t.Fatalf("load after adoption: %v", err)
	}
	for _, cls := range b.Classes() {
		if _, ok := b.cachedEntry(cls); !ok {
			t.Fatalf("class %v was sealed but not installed", cls.Prefix)
		}
	}
	checkHeld(t, b, comp, "loaded", func(int, *absEntry) bool { return true })
}
