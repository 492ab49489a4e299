package build

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/oracle"
	"bonsai/internal/policy"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// TestBuilderConstruction checks that every generator family builds and
// that the Builder's topology mirrors the configuration.
func TestBuilderConstruction(t *testing.T) {
	cases := []struct {
		name  string
		net   *config.Network
		nodes int
	}{
		{"fattree", netgen.Fattree(4, netgen.PolicyShortestPath), 20},
		{"ring", netgen.Ring(8), 8},
		{"mesh", netgen.FullMesh(5), 5},
	}
	for _, c := range cases {
		b, err := New(c.net)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := b.G.NumNodes(); got != c.nodes {
			t.Errorf("%s: nodes = %d, want %d", c.name, got, c.nodes)
		}
		if got := b.G.NumLinks(); got != len(c.net.Links) {
			t.Errorf("%s: links = %d, want %d", c.name, got, len(c.net.Links))
		}
		if !b.HasBGP() {
			t.Errorf("%s: HasBGP = false, want true", c.name)
		}
		if len(b.Classes()) == 0 {
			t.Errorf("%s: no destination classes", c.name)
		}
	}
}

// TestNewRejectsInvalidNetwork checks that validation errors surface.
func TestNewRejectsInvalidNetwork(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil network accepted")
	}
	n := config.New("broken")
	n.AddRouter("a")
	n.Links = append(n.Links, config.Link{A: "a", B: "ghost"})
	if _, err := New(n); err == nil {
		t.Fatal("dangling link accepted")
	}
}

// TestClassesDeterministic checks that class enumeration is stable within a
// Builder and across independently constructed Builders of the same network.
func TestClassesDeterministic(t *testing.T) {
	mk := func() *Builder {
		b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := mk(), mk()
	c1, c2 := b1.Classes(), b2.Classes()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("class enumeration differs across builders:\n%v\n%v", c1, c2)
	}
	again := b1.Classes()
	if !reflect.DeepEqual(c1, again) {
		t.Fatal("repeated Classes() calls differ")
	}
	for i := 1; i < len(c1); i++ {
		if c1[i].Prefix.String() <= c1[i-1].Prefix.String() {
			// Prefix ordering comes from the trie walk; equal or descending
			// neighbors would mean nondeterministic iteration leaked through.
			t.Fatalf("classes not strictly ordered at %d: %v then %v", i, c1[i-1].Prefix, c1[i].Prefix)
		}
	}
}

// TestRoleSignatureSymmetry checks that symmetric routers share a role
// signature while asymmetric ones do not.
func TestRoleSignatureSymmetry(t *testing.T) {
	// Every ring router is configured identically up to names and prefixes.
	ring := netgen.Ring(6)
	names := ring.RouterNames()
	want := RoleSignature(ring.Routers[names[0]], nil, true, false)
	for _, name := range names[1:] {
		if got := RoleSignature(ring.Routers[name], nil, true, false); got != want {
			t.Fatalf("ring routers %s and %s disagree:\n%q\n%q", names[0], name, want, got)
		}
	}

	// Datacenter spines of different clusters differ only by their unused
	// tag: equal roles with erasure, distinct without.
	dc := netgen.Datacenter(netgen.DCOptions{
		Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
		PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
	})
	s00, s10 := dc.Routers["spine-0-0"], dc.Routers["spine-1-0"]
	if RoleSignature(s00, nil, true, false) != RoleSignature(s10, nil, true, false) {
		t.Fatal("cross-cluster spines should share a role after tag erasure")
	}
	if RoleSignature(s00, nil, false, false) == RoleSignature(s10, nil, false, false) {
		t.Fatal("cross-cluster spines should differ without erasure (distinct tags)")
	}
	// Same-cluster spines are symmetric either way.
	s01 := dc.Routers["spine-0-1"]
	if RoleSignature(s00, nil, false, false) != RoleSignature(s01, nil, false, false) {
		t.Fatal("same-cluster spines should share a role")
	}
	// A spine and a leaf are never the same role.
	if RoleSignature(s00, nil, true, true) == RoleSignature(dc.Routers["leaf-0-00"], nil, true, true) {
		t.Fatal("spine and leaf must differ")
	}
}

// TestRoleCountMatchesSignatures cross-checks RoleCount against a direct
// signature count and its cache against a recomputation.
func TestRoleCountMatchesSignatures(t *testing.T) {
	net := netgen.WAN(netgen.WANOptions{Backbone: 4, Sites: 3, SwitchesPerSite: 2})
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, name := range net.RouterNames() {
		seen[RoleSignature(net.Routers[name], b.matchedSet, true, false)] = true
	}
	if got := b.RoleCount(true, false); got != len(seen) {
		t.Fatalf("RoleCount = %d, direct count = %d", got, len(seen))
	}
	if got := b.RoleCount(true, false); got != len(seen) {
		t.Fatalf("cached RoleCount diverged: %d vs %d", got, len(seen))
	}
	// Gateways carry site-specific prefix filters: roughly one role each.
	if b.RoleCount(true, false) < 3 {
		t.Fatalf("WAN gateways should contribute distinct roles, got %d", b.RoleCount(true, false))
	}
}

// TestEdgeKeyLiveness spot-checks the canonical edge keys of the fattree:
// the destination-based export filter kills transit edges through non-dest
// edge routers while keeping the destination's own uplinks live.
func TestEdgeKeyLiveness(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	cls := b.Classes()[0] // edge-0-0's prefix
	if cls.Origins[0] != "edge-0-0" {
		t.Fatalf("unexpected first class origin %q", cls.Origins[0])
	}
	comp := b.NewCompiler(true)
	key := b.EdgeKeyFunc(comp, cls)
	agg := b.G.MustLookup("agg-0-0")
	dest := b.G.MustLookup("edge-0-0")
	other := b.G.MustLookup("edge-0-1")
	if k := key(agg, dest); k.Dead() || !k.BGP {
		t.Fatalf("uplink agg-0-0 <- edge-0-0 should carry BGP, got %+v", k)
	}
	if k := key(agg, other); !k.Dead() {
		t.Fatalf("transit agg-0-0 <- edge-0-1 should be dead for this class, got %+v", k)
	}
	// Edge learning from its aggregation router: live, unfiltered session.
	if k := key(other, agg); k.Dead() || !k.BGP {
		t.Fatalf("downlink edge-0-1 <- agg-0-0 should be live, got %+v", k)
	}
	// Keys are canonical: recomputing with the same compiler is stable.
	k1, k2 := key(agg, dest), b.EdgeKeyFunc(comp, cls)(agg, dest)
	if k1 != k2 {
		t.Fatalf("edge keys unstable across EdgeKeyFunc calls: %+v vs %+v", k1, k2)
	}
}

// TestPrefsReflectLocalPreferencePolicies checks Theorem 4.4's prefs bound:
// shortest-path routers can only use the default preference, while the
// prefer-bottom aggregation routers can assign two values.
func TestPrefsReflectLocalPreferencePolicies(t *testing.T) {
	sp, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	prefs := sp.PrefsFunc(sp.Classes()[0])
	for _, u := range sp.G.Nodes() {
		if got := prefs(u); got != 1 {
			t.Fatalf("shortest-path prefs(%s) = %d, want 1", sp.G.Name(u), got)
		}
	}
	pb, err := New(netgen.Fattree(4, netgen.PolicyPreferBottom))
	if err != nil {
		t.Fatal(err)
	}
	prefs = pb.PrefsFunc(pb.Classes()[0])
	if got := prefs(pb.G.MustLookup("agg-0-0")); got != 2 {
		t.Fatalf("prefer-bottom prefs(agg-0-0) = %d, want 2", got)
	}
	if got := prefs(pb.G.MustLookup("edge-0-0")); got != 1 {
		t.Fatalf("prefer-bottom prefs(edge-0-0) = %d, want 1", got)
	}
}

// TestPrefsExactUnderEBGPReset pins down the Theorem 4.4 bound on an
// asymmetric diamond: d-a-u and d-b-u where only a's import from d raises
// the local preference. Because LOCAL_PREF is reset across eBGP sessions,
// u can only ever hold the default preference — prefs(u) must be 1, a can
// assign two values, and the compressed network must stay CP-equivalent.
func TestPrefsExactUnderEBGPReset(t *testing.T) {
	n := config.New("diamond")
	for i, name := range []string{"d", "a", "b", "u"} {
		n.AddRouter(name).EnsureBGP(65001 + i)
	}
	peer := func(x, y string) {
		n.AddLink(x, y)
		n.Routers[x].BGP.Neighbors[y] = &config.Neighbor{}
		n.Routers[y].BGP.Neighbors[x] = &config.Neighbor{}
	}
	peer("d", "a")
	peer("d", "b")
	peer("a", "u")
	peer("b", "u")
	n.Routers["d"].Originate = append(n.Routers["d"].Originate, netip.MustParsePrefix("10.0.0.0/24"))
	ra := n.Routers["a"]
	ra.Env.RouteMaps["UP"] = &policy.RouteMap{Name: "UP", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Permit, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 200}}},
	}}
	ra.BGP.Neighbors["d"].ImportMap = "UP"

	b, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	cls := b.Classes()[0]
	prefs := b.PrefsFunc(cls)
	if got := prefs(b.G.MustLookup("a")); got != 2 {
		t.Fatalf("prefs(a) = %d, want 2", got)
	}
	if got := prefs(b.G.MustLookup("u")); got != 1 {
		t.Fatalf("prefs(u) = %d, want 1 (preference must not leak across eBGP)", got)
	}
	abs, err := b.Compress(context.Background(), b.NewCompiler(true), cls)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := b.Instance(cls)
	if err != nil {
		t.Fatal(err)
	}
	abst, err := b.AbstractInstance(cls, abs)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckAcrossSolutions(conc, abst, abs, 8); err != nil {
		t.Fatalf("CP-equivalence violated on the asymmetric diamond: %v", err)
	}
}

// TestAbstractInstanceRejectsDanglingRepEdge: an abstraction whose RepEdge
// names a pair of routers that is not an edge of this network must be an
// error, not an abstract edge with no protocol on it (which answers
// "unreachable").
func TestAbstractInstanceRejectsDanglingRepEdge(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	cls := b.Classes()[0]
	abs, err := b.CompressFresh(context.Background(), b.NewCompiler(true), cls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AbstractInstance(cls, abs); err != nil {
		t.Fatal(err)
	}
	for ae, rep := range abs.RepEdge {
		// No router is its own neighbour, so (U, U) is never an edge.
		abs.RepEdge[ae] = topo.Edge{U: rep.U, V: rep.U}
		break
	}
	if _, err := b.AbstractInstance(cls, abs); err == nil {
		t.Fatal("AbstractInstance built an instance from a representative that is not an edge")
	}
}

// TestPrefsCrossIBGPSession checks the iBGP side of the bound: a
// preference assigned by the sender's eBGP import map crosses an iBGP
// session untouched, so the receiver's prefs must count it.
// d -eBGP- b -iBGP- u, plus d -eBGP- c -eBGP- u; b's import from d sets 300.
func TestPrefsCrossIBGPSession(t *testing.T) {
	n := config.New("ibgp")
	for name, asn := range map[string]int{"d": 65001, "b": 65100, "u": 65100, "c": 65002} {
		n.AddRouter(name).EnsureBGP(asn)
	}
	peer := func(x, y string) {
		n.AddLink(x, y)
		n.Routers[x].BGP.Neighbors[y] = &config.Neighbor{}
		n.Routers[y].BGP.Neighbors[x] = &config.Neighbor{}
	}
	peer("d", "b")
	peer("b", "u")
	peer("d", "c")
	peer("c", "u")
	n.Routers["d"].Originate = append(n.Routers["d"].Originate, netip.MustParsePrefix("10.0.0.0/24"))
	rb := n.Routers["b"]
	rb.Env.RouteMaps["UP"] = &policy.RouteMap{Name: "UP", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Permit, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 300}}},
	}}
	rb.BGP.Neighbors["d"].ImportMap = "UP"

	b, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	cls := b.Classes()[0]
	prefs := b.PrefsFunc(cls)
	if got := prefs(b.G.MustLookup("u")); got != 2 {
		t.Fatalf("prefs(u) = %d, want 2 (300 crosses the iBGP session, 100 arrives via c)", got)
	}
	if got := prefs(b.G.MustLookup("c")); got != 1 {
		t.Fatalf("prefs(c) = %d, want 1", got)
	}
}

// TestAbstractConfigRoundTrips compresses one class, writes the abstraction
// back out as a configuration, and re-parses it.
func TestAbstractConfigRoundTrips(t *testing.T) {
	b, err := New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	cls := b.Classes()[0]
	abs, err := b.Compress(context.Background(), b.NewCompiler(true), cls)
	if err != nil {
		t.Fatal(err)
	}
	absCfg, err := b.AbstractConfig(cls, abs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(absCfg.Routers); got != abs.NumAbstractNodes() {
		t.Fatalf("abstract config has %d routers, abstraction has %d nodes", got, abs.NumAbstractNodes())
	}
	reparsed, err := config.ParseString(config.PrintString(absCfg))
	if err != nil {
		t.Fatalf("abstract config does not round-trip: %v", err)
	}
	if err := reparsed.Validate(); err != nil {
		t.Fatalf("re-parsed abstract config invalid: %v", err)
	}
	// The destination must originate the class prefix in the small network.
	var origin *config.Router
	for _, r := range reparsed.Routers {
		if len(r.Originate) > 0 {
			origin = r
		}
	}
	if origin == nil || origin.Originate[0] != cls.Prefix {
		t.Fatalf("abstract destination does not originate %v", cls.Prefix)
	}
	// The re-parsed configuration must simulate like the abstraction: every
	// abstract node ends up with a route (BGP sessions need entries on both
	// ends even when only one direction is live in the abstract graph).
	b2, err := New(reparsed)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := b2.Instance(b2.Classes()[0])
	if err != nil {
		t.Fatal(err)
	}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range b2.G.Nodes() {
		if sol.Label[u] == nil {
			t.Fatalf("re-parsed abstract config leaves %s without a route", b2.G.Name(u))
		}
	}
}

// TestInstanceErrors checks the error paths of instance construction.
func TestInstanceErrors(t *testing.T) {
	b, err := New(netgen.Ring(4))
	if err != nil {
		t.Fatal(err)
	}
	var bad = b.Classes()[0]
	bad.Origins = nil
	if _, err := b.Instance(bad); err == nil {
		t.Fatal("class without origins accepted")
	}
	bad.Origins = []string{"ghost"}
	if _, err := b.Instance(bad); err == nil {
		t.Fatal("class with unknown origin accepted")
	}
	if _, err := b.Compress(context.Background(), b.NewCompiler(true), bad); err == nil {
		t.Fatal("Compress accepted unknown origin")
	}
}
