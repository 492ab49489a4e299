package bonsai_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

// queryFingerprint renders every (source, class) reachability answer of the
// engine — the observable behavior an incremental update must preserve.
func queryFingerprint(t *testing.T, eng *bonsai.Engine) string {
	t.Helper()
	ctx := context.Background()
	srcs := eng.Network().RouterNames()
	out := ""
	for _, dest := range eng.Classes() {
		for _, src := range srcs {
			res, err := eng.Reach(ctx, src, dest)
			if err != nil {
				t.Fatalf("reach %s -> %s: %v", src, dest, err)
			}
			con, err := eng.ReachConcrete(ctx, src, dest)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reachable != con.Reachable {
				t.Fatalf("compressed answer diverges from concrete for %s -> %s after update", src, dest)
			}
			out += fmt.Sprintf("%s>%s=%v;", src, dest, res.Reachable)
		}
	}
	return out
}

// checkApplyEquivalence warms eng, applies delta, and asserts that every
// query answer afterwards is field-identical to a cold engine opened on the
// post-delta configuration.
func checkApplyEquivalence(t *testing.T, eng *bonsai.Engine, delta bonsai.Delta) *bonsai.ApplyReport {
	t.Helper()
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Apply(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := bonsai.Open(eng.Network())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := queryFingerprint(t, eng), queryFingerprint(t, fresh); got != want {
		t.Fatalf("warm engine diverges from cold open after %+v", delta)
	}
	warm, err := eng.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pairs != cold.Pairs || warm.ReachablePairs != cold.ReachablePairs || warm.Classes != cold.Classes {
		t.Fatalf("verify reports diverge: warm %v cold %v", warm, cold)
	}
	return rep
}

func TestApplyLinkFlap(t *testing.T) {
	for _, pol := range []struct {
		name string
		p    netgen.FattreePolicy
	}{
		{"shortest", netgen.PolicyShortestPath},
		{"prefer-bottom", netgen.PolicyPreferBottom},
	} {
		t.Run(pol.name, func(t *testing.T) {
			eng := openFattree(t, 4, pol.p)
			link := []bonsai.LinkRef{{A: "agg-3-0", B: "core-0"}}
			rep := checkApplyEquivalence(t, eng, bonsai.Delta{LinkDown: link})
			if rep.Adopted+rep.Invalidated != 8 {
				t.Fatalf("down report: %+v", rep)
			}
			// Bring it back: answers must match the original network again.
			orig, err := bonsai.Open(netgen.Fattree(4, pol.p))
			if err != nil {
				t.Fatal(err)
			}
			checkApplyEquivalence(t, eng, bonsai.Delta{LinkUp: link})
			if got, want := queryFingerprint(t, eng), queryFingerprint(t, orig); got != want {
				t.Fatal("link up did not restore the original behavior")
			}
		})
	}
}

func TestApplyMeshLinkDown(t *testing.T) {
	// In a full mesh with destination-based export filters, a link between
	// r1 and r2 is dead for every class but theirs — the delta must adopt
	// all other classes via the dead-edge fast path and invalidate exactly
	// the two endpoint classes.
	eng, err := bonsai.Open(netgen.FullMesh(8))
	if err != nil {
		t.Fatal(err)
	}
	rep := checkApplyEquivalence(t, eng, bonsai.Delta{
		LinkDown: []bonsai.LinkRef{{A: "r-0001", B: "r-0002"}},
	})
	if rep.Adopted != 6 || rep.Invalidated != 2 || rep.Unchanged != 6 {
		t.Fatalf("mesh apply report: %+v", rep)
	}
	res, err := eng.Reach(context.Background(), "r-0001", "10.0.2.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("r-0001 still reaches r-0002 with the only permitted path down")
	}
}

func TestApplyLinkDownChangesAnswers(t *testing.T) {
	// Cutting both uplinks of edge-0-0 must actually change reachability —
	// guarding against a vacuous equivalence test.
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Reach(ctx, "edge-1-0", "10.0.0.0/24")
	if err != nil || !res.Reachable {
		t.Fatalf("precondition: %v %v", res, err)
	}
	_, err = eng.Apply(ctx, bonsai.Delta{LinkDown: []bonsai.LinkRef{
		{A: "edge-0-0", B: "agg-0-0"},
		{A: "edge-0-0", B: "agg-0-1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Reach(ctx, "edge-1-0", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("destination still reachable with every uplink down")
	}
	con, err := eng.ReachConcrete(ctx, "edge-1-0", "10.0.0.0/24")
	if err != nil || con.Reachable {
		t.Fatalf("concrete disagrees: %v %v", con, err)
	}
}

func TestApplyRouteMapEdit(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	// Stop edge-1-0 from exporting anything: its class becomes unreachable
	// from everywhere while every other class is untouched.
	delta := bonsai.Delta{SetRouteMaps: []bonsai.RouteMapEdit{{
		Router: "edge-1-0",
		Name:   "EXPORT-OWN",
		Map: &bonsai.RouteMap{Clauses: []bonsai.Clause{
			{Seq: 10, Action: bonsai.Deny},
		}},
	}}}
	rep := checkApplyEquivalence(t, eng, delta)
	// The edit is confined to edge-1-0's sessions; classes for which those
	// sessions were already dead (every class but its own) stay adopted.
	if rep.Invalidated > 1 {
		t.Fatalf("route-map edit invalidated %d classes: %+v", rep.Invalidated, rep)
	}
	res, err := eng.Reach(context.Background(), "edge-0-0", "10.0.2.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("class still reachable after export shut off")
	}
}

func TestApplyPrefixAddRemove(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	classesBefore := len(eng.Classes())
	// Originate a fresh prefix on edge-1-1 and extend its OWN filter so the
	// new prefix is exported like the old one.
	own := &bonsai.PrefixList{Entries: []bonsai.PrefixEntry{
		{Action: bonsai.Permit, Prefix: mustPfx("10.0.3.0/24")}, // its original /24
		{Action: bonsai.Permit, Prefix: mustPfx("10.9.0.0/24")},
	}}
	delta := bonsai.Delta{
		AddOriginated:  []bonsai.OriginEdit{{Router: "edge-1-1", Prefix: "10.9.0.0/24"}},
		SetPrefixLists: []bonsai.PrefixListEdit{{Router: "edge-1-1", Name: "OWN", List: own}},
	}
	rep := checkApplyEquivalence(t, eng, delta)
	if got := len(eng.Classes()); got != classesBefore+1 {
		t.Fatalf("classes after add: %d, want %d", got, classesBefore+1)
	}
	if rep.NewClasses != 1 {
		t.Fatalf("apply report: %+v", rep)
	}
	res, err := eng.Reach(ctx, "edge-0-0", "10.9.0.0/24")
	if err != nil || !res.Reachable {
		t.Fatalf("new prefix unreachable: %v %v", res, err)
	}
	// And remove it again.
	rep2 := checkApplyEquivalence(t, eng, bonsai.Delta{
		RemoveOriginated: []bonsai.OriginEdit{{Router: "edge-1-1", Prefix: "10.9.0.0/24"}},
	})
	if got := len(eng.Classes()); got != classesBefore {
		t.Fatalf("classes after remove: %d, want %d", got, classesBefore)
	}
	if rep2.RemovedClasses != 1 {
		t.Fatalf("remove report: %+v", rep2)
	}
}

func TestApplyErrors(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Apply(ctx, bonsai.Delta{}); err == nil {
		t.Fatal("empty delta accepted")
	}
	if _, err := eng.Apply(ctx, bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "x", B: "y"}}}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := eng.Apply(ctx, bonsai.Delta{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "nope", Name: "M"}}}); err == nil {
		t.Fatal("unknown router accepted")
	}
	// A failed Apply must leave the engine serving the old network.
	if _, err := eng.Verify(ctx, bonsai.VerifyRequest{}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyConcurrentVerify exercises queries racing an update: readers must
// always see a consistent snapshot (run under -race in CI).
func TestApplyConcurrentVerify(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath, bonsai.WithWorkers(2))
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	link := []bonsai.LinkRef{{A: "agg-3-0", B: "core-0"}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w == 0 {
					if _, err := eng.Verify(ctx, bonsai.VerifyRequest{MaxClasses: 4}); err != nil {
						errCh <- err
						return
					}
				} else {
					dests := eng.Classes()
					if _, err := eng.Reach(ctx, "edge-1-1", dests[i%len(dests)]); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 6; i++ {
		var d bonsai.Delta
		if i%2 == 0 {
			d.LinkDown = link
		} else {
			d.LinkUp = link
		}
		if _, err := eng.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestApplyInvalidatesOnlyAffected is the acceptance check on fattree-180:
// taking one aggregation-core link down must invalidate exactly the classes
// of the pod that loses core connectivity (6 of 72) and adopt the rest.
func TestApplyInvalidatesOnlyAffected(t *testing.T) {
	eng := openFattree(t, 12, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Apply(ctx, bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-5-0", B: "core-0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes != 72 || rep.Adopted != 66 || rep.Invalidated != 6 {
		t.Fatalf("apply report: %+v", rep)
	}
	// The invalidated classes are exactly pod 5's prefixes (alloc order:
	// pod*6+edge -> 10.0.30.0/24 .. 10.0.35.0/24).
	want := map[string]bool{}
	for i := 30; i < 36; i++ {
		want[fmt.Sprintf("10.0.%d.0/24", i)] = true
	}
	for _, p := range rep.InvalidatedPrefixes {
		if !want[p] {
			t.Fatalf("unexpected invalidated class %s (report %+v)", p, rep)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("pod-5 classes not invalidated: %v", want)
	}
	st := eng.Stats()
	if st.Adopted != 66 {
		t.Fatalf("cache stats after apply: %+v", st)
	}
	// Recompressing the full set must only pay for the invalidated pod:
	// one fresh refinement, five symmetry transports, the rest served.
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Fresh+int(st.Transported) != 6 {
		t.Fatalf("recompression stats: %+v (want fresh+transported == 6)", st)
	}
	if st.Adopted != 66 {
		t.Fatalf("adopted entries lost: %+v", st)
	}
}

// TestApplyWarmVsColdSpeed is a coarse guard on the incremental-update claim
// (the traced benchmark run times both sides: engine.apply_ms +
// engine.lazy_recompress_ms against engine.open_ms + engine.compress_ms): a
// warm Apply plus recompression must beat a cold open plus full compression
// by a wide margin. The threshold is deliberately loose for noisy CI boxes.
func TestApplyWarmVsColdSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	cfg := netgen.Fattree(12, netgen.PolicyShortestPath)
	ctx := context.Background()
	eng, err := bonsai.Open(cfg, bonsai.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	link := []bonsai.LinkRef{{A: "agg-5-0", B: "core-0"}}
	// Measure the best warm Apply of a few flaps; recompression of the
	// invalidated pod happens between measurements (the lazy query-time
	// cost, reported separately by the apply-warm benchmark).
	warm, cycle := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 6; i++ {
		var d bonsai.Delta
		if i%2 == 0 {
			d.LinkDown = link
		} else {
			d.LinkUp = link
		}
		start := time.Now()
		if _, err := eng.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
		if a := time.Since(start); a < warm {
			warm = a
		}
		if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
			t.Fatal(err)
		}
		if c := time.Since(start); c < cycle {
			cycle = c
		}
	}
	cold := time.Duration(1 << 62)
	for i := 0; i < 2; i++ {
		start := time.Now()
		cool, err := bonsai.Open(cfg, bonsai.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cool.Compress(ctx, bonsai.ClassSelector{}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < cold {
			cold = d
		}
	}
	if warm*3 >= cold {
		t.Fatalf("warm Apply %v not clearly faster than cold open+compress %v", warm, cold)
	}
	if cycle*2 >= cold {
		t.Fatalf("warm apply+recompress %v not clearly faster than cold open+compress %v", cycle, cold)
	}
	t.Logf("apply %v (cycle with recompress %v) vs cold open+compress %v (%.1fx apply, %.1fx cycle)",
		warm, cycle, cold, float64(cold)/float64(warm), float64(cold)/float64(cycle))
}

func mustPfx(s string) bonsai.Prefix {
	p, err := bonsai.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// TestApplyLeavesPredecessorUntouched pins the copy-on-write rule of the
// apply path: a successor configuration shares every router its delta does
// not edit with the snapshot it replaces, so an apply must never write
// through a shared router. A chain using all six edit kinds runs while one
// goroutine keeps reading the snapshot held from before the chain and another
// keeps querying (each Reach finishes on whichever snapshot it started on);
// under -race a write through a shared router is a reported race, and
// without it every snapshot held along the chain must still print
// byte-identically at the end.
func TestApplyLeavesPredecessorUntouched(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	type held struct {
		net  *bonsai.Network
		text string
	}
	hold := func() held { n := eng.Network(); return held{n, config.PrintString(n)} }
	first := hold()
	snaps := []held{first}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the reader of the old snapshot
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := config.PrintString(first.net); got != first.text {
				t.Error("held snapshot changed under a concurrent apply")
				return
			}
		}
	}()
	go func() { // queries in flight across the swaps
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Reach(ctx, fmt.Sprintf("edge-%d-%d", i%4, i/4%2), "10.0.2.0/24"); err != nil {
				t.Errorf("reach during apply chain: %v", err)
				return
			}
		}
	}()

	link := []bonsai.LinkRef{{A: "agg-3-0", B: "core-0"}}
	origin := []bonsai.OriginEdit{{Router: "edge-1-1", Prefix: "10.9.0.0/24"}}
	own := &bonsai.PrefixList{Entries: []bonsai.PrefixEntry{
		{Action: bonsai.Permit, Prefix: mustPfx("10.0.3.0/24")},
		{Action: bonsai.Permit, Prefix: mustPfx("10.9.0.0/24")},
	}}
	deny := &bonsai.RouteMap{Clauses: []bonsai.Clause{{Seq: 10, Action: bonsai.Deny}}}
	chain := []bonsai.Delta{
		{LinkDown: link},
		{AddOriginated: origin},
		{SetPrefixLists: []bonsai.PrefixListEdit{{Router: "edge-1-1", Name: "OWN", List: own}}},
		{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "edge-1-0", Name: "EXPORT-OWN", Map: deny}}},
		{RemoveOriginated: origin},
		{LinkUp: link},
		// ...and all six kinds in one delta, two of them on one router.
		{
			LinkDown:         []bonsai.LinkRef{{A: "edge-0-0", B: "agg-0-0"}},
			LinkUp:           []bonsai.LinkRef{{A: "edge-0-0", B: "edge-0-1"}},
			SetRouteMaps:     []bonsai.RouteMapEdit{{Router: "edge-2-0", Name: "EXPORT-OWN", Map: deny}},
			SetPrefixLists:   []bonsai.PrefixListEdit{{Router: "edge-1-1", Name: "OWN", List: own}},
			AddOriginated:    origin,
			RemoveOriginated: []bonsai.OriginEdit{{Router: "edge-1-1", Prefix: "10.0.3.0/24"}},
		},
	}
	for round := 0; round < 3; round++ {
		for _, d := range chain {
			if _, err := eng.Apply(ctx, d); err != nil {
				t.Fatalf("apply %+v: %v", d, err)
			}
			snaps = append(snaps, hold())
		}
	}
	close(stop)
	wg.Wait()
	for i, s := range snaps {
		if got := config.PrintString(s.net); got != s.text {
			t.Fatalf("snapshot %d changed after later applies:\n--- held\n%s\n--- now\n%s", i, s.text, got)
		}
	}
	if snaps[0].text == snaps[len(snaps)-1].text {
		t.Fatal("the chain did not change the configuration")
	}
}
