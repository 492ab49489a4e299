package netgen

import (
	"context"
	"fmt"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/ec"
	"bonsai/internal/oracle"
	"bonsai/internal/srp"
)

func compressFirstClass(t *testing.T, b *build.Builder) (*srp.Instance, *srp.Instance, int, int) {
	t.Helper()
	classes := b.Classes()
	if len(classes) == 0 {
		t.Fatal("no destination classes")
	}
	cls := classes[0]
	comp := b.NewCompiler(true)
	abs, err := b.Compress(context.Background(), comp, cls)
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
	if err := oracle.CheckAcrossSolutions(conc, abst, abs); err != nil {
		t.Fatalf("CP-equivalence violated: %v", err)
	}
	return conc, abst, abs.NumAbstractNodes(), abs.NumAbstractEdges()
}

func TestFattreeShape(t *testing.T) {
	n := Fattree(4, PolicyShortestPath)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.G.NumNodes(); got != 20 { // 5k²/4 with k=4
		t.Fatalf("nodes = %d, want 20", got)
	}
	if got := len(ec.Classes(n)); got != 8 { // k²/2 edge routers
		t.Fatalf("classes = %d, want 8", got)
	}
	_, _, nodes, edges := compressFirstClass(t, b)
	if nodes != 6 {
		t.Fatalf("fattree abstract nodes = %d, want 6 (Table 1a)", nodes)
	}
	if edges != 5 {
		t.Fatalf("fattree abstract links = %d, want 5", edges)
	}
}

func TestFattreePreferBottomIsLarger(t *testing.T) {
	sp := Fattree(4, PolicyShortestPath)
	pb := Fattree(4, PolicyPreferBottom)
	bs, err := build.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := build.New(pb)
	if err != nil {
		t.Fatal(err)
	}
	clsS, clsP := bs.Classes()[0], bp.Classes()[0]
	absS, err := bs.Compress(context.Background(), bs.NewCompiler(true), clsS)
	if err != nil {
		t.Fatal(err)
	}
	absP, err := bp.Compress(context.Background(), bp.NewCompiler(true), clsP)
	if err != nil {
		t.Fatal(err)
	}
	if absP.NumAbstractNodes() <= absS.NumAbstractNodes() {
		t.Fatalf("prefer-bottom abstraction (%d) should exceed shortest-path (%d), Figure 11",
			absP.NumAbstractNodes(), absS.NumAbstractNodes())
	}
}

func TestRingShape(t *testing.T) {
	n := Ring(10)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ec.Classes(n)); got != 10 {
		t.Fatalf("classes = %d, want 10", got)
	}
	_, _, nodes, edges := compressFirstClass(t, b)
	if nodes != 6 { // n/2 + 1
		t.Fatalf("ring abstract nodes = %d, want 6", nodes)
	}
	if edges != 5 {
		t.Fatalf("ring abstract links = %d, want 5", edges)
	}
}

func TestFullMeshShape(t *testing.T) {
	n := FullMesh(6)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	_, _, nodes, edges := compressFirstClass(t, b)
	if nodes != 2 || edges != 1 {
		t.Fatalf("mesh abstraction = %d nodes / %d links, want 2/1 (Table 1a)", nodes, edges)
	}
}

func tinyDC() DCOptions {
	return DCOptions{
		Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
		PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
	}
}

func TestDatacenterBuilds(t *testing.T) {
	n := Datacenter(tinyDC())
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	// 3*(2+4) + 2 + 1 routers.
	if got := b.G.NumNodes(); got != 21 {
		t.Fatalf("nodes = %d, want 21", got)
	}
	// Virtual interfaces multiply interface count.
	if n.NumInterfaces() <= 2*len(n.Links) {
		t.Fatal("virtual interfaces not accounted")
	}
	// Classes: leaves' prefixes plus the border default route.
	if got := len(ec.Classes(n)); got != 3*4*2+1 {
		t.Fatalf("classes = %d, want 25", got)
	}
	compressFirstClass(t, b)
}

func TestDatacenterRoleStructure(t *testing.T) {
	b, err := build.New(Datacenter(tinyDC()))
	if err != nil {
		t.Fatal(err)
	}
	erased := b.RoleCount(true, false)
	full := b.RoleCount(false, false)
	noStatics := b.RoleCount(true, true)
	if full <= erased {
		t.Fatalf("unused-tag erasure must reduce roles: full=%d erased=%d", full, erased)
	}
	if noStatics >= erased {
		t.Fatalf("dropping statics must reduce roles further: erased=%d noStatics=%d", erased, noStatics)
	}
}

func tinyWAN() WANOptions {
	return WANOptions{Backbone: 6, Sites: 4, SwitchesPerSite: 3}
}

func TestWANBuilds(t *testing.T) {
	n := WAN(tinyWAN())
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.G.NumNodes(); got != 6+4+4*3 {
		t.Fatalf("nodes = %d, want 22", got)
	}
	if got := len(ec.Classes(n)); got != 12 {
		t.Fatalf("classes = %d, want 12", got)
	}
	compressFirstClass(t, b)
}

func TestWANMultiProtocolRoutes(t *testing.T) {
	n := WAN(tinyWAN())
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	cls := b.Classes()[0]
	inst, err := b.Instance(cls)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := srp.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	// The destination's prefix must be reachable from a remote gateway
	// (via BGP redistribution through the backbone).
	routed := 0
	for _, u := range b.G.Nodes() {
		if sol.Label[u] != nil {
			routed++
		}
	}
	if routed < b.G.NumNodes() {
		t.Fatalf("only %d/%d nodes routed; redistribution or statics broken",
			routed, b.G.NumNodes())
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"odd fattree": func() { Fattree(5, PolicyShortestPath) },
		"tiny ring":   func() { Ring(2) },
		"tiny mesh":   func() { FullMesh(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSpineLeafShape(t *testing.T) {
	o := SpineLeafOptions{Spines: 3, Leaves: 4, ExtPerLeaf: 2, PrefixesPerExt: 2}
	n := SpineLeaf(o)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.G.NumNodes(), 3+4*(1+2); got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	if got, want := len(ec.Classes(n)), 4*2*2; got != want {
		t.Fatalf("classes = %d, want %d", got, want)
	}
	// CP equivalence on the first class (the shared gauntlet helper).
	compressFirstClass(t, b)

	// The scenario must exercise both reuse levels: identity sharing
	// within one external peer (equal fingerprints) and symmetry transport
	// across externals — one fresh compression for the whole network.
	comp := b.NewCompiler(true)
	for _, cls := range b.Classes() {
		if _, err := b.Compress(context.Background(), comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	st := b.AbstractionCacheStats()
	if st.Fresh != 1 {
		t.Errorf("fresh compressions = %d, want 1 (transported %d, served %d)",
			st.Fresh, st.Transported, st.Served)
	}
	if st.Served == 0 {
		t.Error("no identity-shared classes; PrefixesPerExt > 1 should share fingerprints")
	}
	if st.Transported == 0 {
		t.Error("no symmetry transports across externals")
	}
}

func TestSpineLeafPreferExternal(t *testing.T) {
	n := SpineLeaf(SpineLeafOptions{Spines: 2, Leaves: 3, ExtPerLeaf: 1, PrefixesPerExt: 1, PreferExternal: true})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if b.CertifiesUnique(b.Classes()[0]) {
		t.Fatal("PreferExternal left the class with one local preference per router")
	}
	compressFirstClass(t, b)
}

// BenchmarkFattree generates the fat-trees the benchmark and the scale tests
// build: each AddLink finds its pair through the network's link index, so
// Fattree(30), 6 750 links, is a few tens of ms, not the 0.4 s a scan of
// Links per call took.
func BenchmarkFattree(b *testing.B) {
	for _, k := range []int{20, 30} {
		b.Run(fmt.Sprint("k=", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				Fattree(k, PolicyShortestPath)
			}
		})
	}
}
