package build

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
)

// aclStaticNet is a hub whose destination d originates three prefixes, with
// three BGP spokes x1..x3 peering d and a chain x1 - x2 - x3, so x1 and x3
// are symmetric. Its classes, all fresh and in prefix order, form two pairs
// the fresh-adjacency key must tell apart: 10.0.0.0/24 and 10.0.1.0/24 differ
// only in a static route x1 holds toward d for the first, 10.0.1.0/24 and
// 10.0.2.0/24 only in the verdict of x3's ACL toward d, which denies the
// last. Either difference changes one edge's key and splits x1 from x3, so a
// key without it hands the second class of its pair the first one's
// adjacency, and a wrong abstraction.
func aclStaticNet() *config.Network {
	n := config.New("acl-static")
	for i, name := range []string{"d", "x1", "x2", "x3"} {
		n.AddRouter(name).EnsureBGP(65001 + i)
	}
	peer := func(a, b string) {
		n.AddLink(a, b)
		n.Routers[a].BGP.Neighbors[b] = &config.Neighbor{}
		n.Routers[b].BGP.Neighbors[a] = &config.Neighbor{}
	}
	for _, x := range []string{"x1", "x2", "x3"} {
		peer("d", x)
	}
	peer("x1", "x2")
	peer("x2", "x3")
	d := n.Routers["d"]
	for i := range 3 {
		d.Originate = append(d.Originate, netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i)))
	}
	n.Routers["x1"].Statics = []config.StaticRoute{{Prefix: netip.MustParsePrefix("10.0.0.0/24"), NextHop: "d"}}
	x3 := n.Routers["x3"]
	x3.Env.ACLs["NO-TWO"] = &policy.ACL{Name: "NO-TWO", Entries: []policy.PrefixEntry{
		{Action: policy.Deny, Prefix: netip.MustParsePrefix("10.0.2.0/24")},
		{Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32},
	}}
	x3.IfaceACL = map[string]string{"d": "NO-TWO"}
	return n
}

// TestSharedAdjacencyMatchesFresh holds the fresh-miss branch's adjacency
// slot to the oracle: every class through CompressTagged, on one compiler,
// equals CompressFresh's on another. A key that drops the statics, the match
// outcomes or the ACL verdicts hands some class a neighbour's adjacency; the
// datacenter and the WAN catch the first, aclStaticNet the statics and the
// ACL verdicts. The reuse counts are pinned: a slot that stopped matching
// would pass the comparison while saving nothing. The datacenter runs on
// full-universe compilers, which never transport, so all 171 of its distinct
// classes refine (on erasing compilers 168 of them transport).
func TestSharedAdjacencyMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		net           *config.Network
		erase         bool
		fresh, reused int
	}{
		{netgen.Datacenter(netgen.DCOptions{}), false, 171, 125},
		{netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3}), true, -1, -1},
		{aclStaticNet(), true, 3, 0},
	} {
		b, err := New(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		comp, ref := b.NewCompiler(tc.erase), b.NewCompiler(tc.erase)
		for _, cls := range b.Classes() {
			got, _, err := b.CompressTagged(ctx, comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			want, err := b.CompressFresh(ctx, ref, cls)
			if err != nil {
				t.Fatal(err)
			}
			absEqual(t, fmt.Sprintf("%s %v", tc.net.Name, cls.Prefix), got, want)
		}
		comp.Close()
		ref.Close()
		fresh, reused := b.AbstractionCacheStats().Fresh, int(b.store.tally[outFreshShared])
		t.Logf("%s: %d fresh classes, %d on the previous one's adjacency", tc.net.Name, fresh, reused)
		if tc.fresh >= 0 && (fresh != tc.fresh || reused != tc.reused) {
			t.Fatalf("%s: %d fresh classes, %d on a shared adjacency; want %d and %d",
				tc.net.Name, fresh, reused, tc.fresh, tc.reused)
		}
	}
}

// TestPooledCompilerSkipsStaleAdjacency serves a successor Builder from a
// compiler whose slot holds its predecessor's adjacency, as the engine's
// compiler pool does across a delta. The successor has every 7th link down,
// so an adjacency built for the predecessor's edges is wrong for it, while
// the two Builders issue the same policy keys for the same classes.
func TestPooledCompilerSkipsStaleAdjacency(t *testing.T) {
	ctx := context.Background()
	net := netgen.Datacenter(netgen.DCOptions{})
	b1, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	comp := b1.NewCompiler(true)
	defer comp.Close()
	classes := b1.Classes()[:40]
	for _, cls := range classes {
		if _, err := b1.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}

	down := net.Fork()
	for i := range down.Links {
		if i%7 == 0 {
			down.Links[i].Down = true
		}
	}
	b2, err := New(down)
	if err != nil {
		t.Fatal(err)
	}
	ref := b2.NewCompiler(true)
	defer ref.Close()
	for _, cls := range b2.Classes()[:40] {
		got, err := b2.Compress(ctx, comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b2.CompressFresh(ctx, ref, cls)
		if err != nil {
			t.Fatal(err)
		}
		absEqual(t, fmt.Sprintf("successor %v", cls.Prefix), got, want)
	}
}

// TestSharedAdjacencyBytes bounds what the fresh-miss branch allocates per
// refinement on the compiler production uses, an erasing one: every distinct
// datacenter class refines through compressFresh with its signature, the
// branch CompressTagged takes when no transport serves a class, on a fresh
// Builder whose compiler's relation cache is warm from a predecessor of the
// same network. CompressTagged itself transports 168 of those classes, so the
// test calls the branch directly; the classes' signatures and the identity
// hits' are computed as Compress computes them. 125 of the 171 refine on the
// previous one's adjacency: 49.4 × |E| measured. With an edge-key vector, an
// adjacency and a liveness vector built for each, it reads 108.8 × |E|.
func TestSharedAdjacencyBytes(t *testing.T) {
	ctx := context.Background()
	net := netgen.Datacenter(netgen.DCOptions{})
	warm, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	comp := warm.NewCompiler(true)
	defer comp.Close()
	for _, cls := range warm.Classes() {
		if _, err := warm.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	classes := b.Classes()
	seen := make(map[string]bool, len(classes))
	reused := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cls := range classes {
		sig, err := b.classSignature(cls)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sig.fp] {
			continue
		}
		seen[sig.fp] = true
		e := absEntry{sig: sig}
		if err := b.compressFresh(ctx, comp, cls, &e); err != nil {
			t.Fatal(err)
		}
		if e.out == outFreshShared {
			reused++
		}
	}
	runtime.ReadMemStats(&after)
	const ceiling = 75 // bytes per directed edge per fresh class
	fresh := len(seen)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(fresh) / float64(b.G.NumEdges())
	t.Logf("%d classes, %d fresh, %d on a shared adjacency: %.1f × |E| bytes per fresh class (|E| = %d)",
		len(classes), fresh, reused, perEdge, b.G.NumEdges())
	if fresh != 171 || reused != 125 {
		t.Fatalf("%d fresh classes, %d on a shared adjacency; want 171 and 125", fresh, reused)
	}
	if perEdge > ceiling {
		t.Fatalf("refining the datacenter allocates %.1f × |E| bytes per fresh class, ceiling %d × |E|", perEdge, ceiling)
	}
}
