package bonsai_test

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"bonsai"
	"bonsai/internal/build"
	"bonsai/internal/netgen"
	"bonsai/internal/verify"
)

func openFattree(t testing.TB, k int, pol netgen.FattreePolicy, opts ...bonsai.Option) *bonsai.Engine {
	t.Helper()
	eng, err := bonsai.Open(netgen.Fattree(k, pol), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineCompress(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath, bonsai.WithWorkers(2))
	rep, err := eng.Compress(context.Background(), bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Network.Routers != 20 || rep.Network.Classes != 8 {
		t.Fatalf("network info: %+v", rep.Network)
	}
	if rep.ClassesCompressed != 8 {
		t.Fatalf("compressed %d classes, want 8", rep.ClassesCompressed)
	}
	// Fat trees compress to 6 abstract nodes / 5 links per class.
	if got := rep.AvgAbstractNodes(); got != 6 {
		t.Errorf("avg abstract nodes = %v, want 6", got)
	}
	if got := rep.AvgAbstractLinks(); got != 5 {
		t.Errorf("avg abstract links = %v, want 5", got)
	}
	st := eng.Stats()
	if st.Fresh+int(st.Transported) != 8 {
		t.Errorf("cache stats %+v: fresh+transported != classes", st)
	}
	// The report must round-trip as JSON (the -json CLI contract).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal report: %v", err)
	}
}

func TestEngineCompressSelector(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	one, err := eng.Compress(ctx, bonsai.ClassSelector{Prefix: "10.0.0.0/24"})
	if err != nil {
		t.Fatal(err)
	}
	if one.ClassesCompressed != 1 || one.SumAbstractNodes != 6 {
		t.Fatalf("selector compress: %+v", one)
	}
	limited, err := eng.Compress(ctx, bonsai.ClassSelector{MaxClasses: 3})
	if err != nil {
		t.Fatal(err)
	}
	if limited.ClassesCompressed != 3 {
		t.Fatalf("max-classes compress: %+v", limited)
	}
}

func TestEngineVerifyAndReach(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath, bonsai.WithWorkers(2))
	ctx := context.Background()
	for _, concrete := range []bool{false, true} {
		rep, err := eng.Verify(ctx, bonsai.VerifyRequest{Concrete: concrete})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs == 0 || rep.Pairs != rep.ReachablePairs {
			t.Fatalf("concrete=%v: %v", concrete, rep)
		}
	}
	com, err := eng.Reach(ctx, "edge-1-1", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	con, err := eng.ReachConcrete(ctx, "edge-1-1", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if !com.Reachable || !con.Reachable || !com.Compressed || con.Compressed {
		t.Fatalf("reach compressed=%+v concrete=%+v", com, con)
	}
	if _, err := eng.Reach(ctx, "no-such-router", "10.0.0.0/24"); err == nil {
		t.Fatal("unknown source accepted")
	}
}

// TestVerifyWorkersBoundedByClasses: AllPairsBonsai fills a policy compiler
// of a few MiB per worker up front, so asking for more workers than there
// are classes must cost no more than one compiler per class (Fattree(4) has
// 8). The fill is sized by the worker count alone, clipped to the classes,
// and every compression borrows from it, so the two calls allocate alike
// however their solves are scheduled.
func TestVerifyWorkersBoundedByClasses(t *testing.T) {
	b, err := build.New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := verify.AllPairsBonsai(context.Background(), b, verify.Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	eight, many := allocated(8), allocated(200)
	if many > eight+eight/2 {
		t.Fatalf("AllPairsBonsai with 200 workers allocated %d MiB, with 8 workers %d MiB", many>>20, eight>>20)
	}
}

func TestEngineRolesAndRoutes(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	roles, err := eng.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if roles.Routers != 20 || roles.Roles <= 0 || roles.Roles > 20 {
		t.Fatalf("roles: %+v", roles)
	}
	routes, err := eng.Routes(ctx, "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if len(routes.Routes) != 20 {
		t.Fatalf("routes for %d routers, want 20", len(routes.Routes))
	}
	for _, r := range routes.Routes {
		if r.Label == "<nil>" {
			t.Errorf("router %s has no route", r.Router)
		}
	}
}

func TestEngineAbstractNetwork(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	absCfg, err := eng.AbstractNetwork(context.Background(), "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if len(absCfg.Routers) != 6 {
		t.Fatalf("abstract config has %d routers, want 6", len(absCfg.Routers))
	}
	// The written-back abstract configuration must itself open and answer.
	absEng, err := bonsai.Open(absCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := absEng.Verify(context.Background(), bonsai.VerifyRequest{Concrete: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 || rep.Pairs != rep.ReachablePairs {
		t.Fatalf("abstract config verify: %v", rep)
	}
}

func TestEngineCancellation(t *testing.T) {
	eng := openFattree(t, 6, netgen.PolicyShortestPath, bonsai.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Verify(ctx, bonsai.VerifyRequest{}); err != context.Canceled {
		t.Fatalf("Verify on cancelled ctx: %v", err)
	}
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != context.Canceled {
		t.Fatalf("Compress on cancelled ctx: %v", err)
	}
	if _, err := eng.Reach(ctx, "edge-1-1", "10.0.0.0/24"); err != context.Canceled {
		t.Fatalf("Reach on cancelled ctx: %v", err)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	var buf []byte
	{
		w := &writer{buf: &buf}
		if err := bonsai.Print(w, eng.Network()); err != nil {
			t.Fatal(err)
		}
	}
	net, err := bonsai.ParseString(string(buf))
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(eng2.Classes()), len(eng.Classes()); got != want {
		t.Fatalf("round-trip classes: %d != %d", got, want)
	}
}

type writer struct{ buf *[]byte }

func (w *writer) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}
