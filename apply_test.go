package bonsai_test

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
)

// checkApplyEquivalence warms eng, applies delta, and asserts that every
// answer afterwards equals a cold engine's opened on the post-delta
// configuration.
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
	bonsai.CheckConsistentSnapshot(t, eng)
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
			if got, want := bonsai.QueryFingerprint(t, eng), bonsai.QueryFingerprint(t, orig); got != want {
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

// classSizes compresses every class of eng and returns each one's abstract
// node and link counts by prefix.
func classSizes(t *testing.T, eng *bonsai.Engine) map[string][2]int {
	t.Helper()
	s, err := eng.CompressStream(context.Background(), bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string][2]int)
	for r := range s.Results() {
		sizes[r.Prefix] = [2]int{r.AbstractNodes, r.AbstractLinks}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestApplyChangingMatchedCommunities: route-map edits that make a tag
// matched and then unmatched again change the compilers' erased universe
// through Apply. Compilers pooled over the old universe must not serve the
// successor: after each edit every class's abstract size and every reach
// answer must equal a cold Open's of the same network.
func TestApplyChangingMatchedCommunities(t *testing.T) {
	net := netgen.Datacenter(netgen.DCOptions{Clusters: 2, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, PrefixesPerLeaf: 2, VirtualIfaces: 1})
	var tag protocols.Community
	for _, nb := range net.Routers["leaf-0-01"].BGP.Neighbors { // one tag map on every session
		tag = net.Routers["leaf-0-01"].Env.RouteMaps[nb.ExportMap].Clauses[0].Sets[0].Comm
		break
	}
	spine := net.Routers["spine-0-0"]
	spine.CloneEnv()
	spine.Env.CommunityLists["SEEN"] = &policy.CommunityList{Name: "SEEN", Communities: []protocols.Community{tag}}
	permitAll := &bonsai.RouteMap{Name: "DROP-SEEN", Clauses: []bonsai.Clause{{Seq: 20, Action: bonsai.Permit}}}
	spine.Env.RouteMaps["DROP-SEEN"] = permitAll
	for _, nb := range spine.BGP.Neighbors {
		nb.ImportMap = "DROP-SEEN"
	}
	eng, err := bonsai.Open(net, bonsai.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	dropSeen := &bonsai.RouteMap{Name: "DROP-SEEN", Clauses: []bonsai.Clause{
		{Seq: 10, Action: bonsai.Deny, Matches: []bonsai.Match{{Kind: bonsai.MatchCommunity, Arg: "SEEN"}}},
		{Seq: 20, Action: bonsai.Permit},
	}}
	for _, step := range []struct {
		m       *bonsai.RouteMap
		matched int
	}{{dropSeen, 1}, {permitAll, 0}} {
		classSizes(t, eng) // warm the pool over the current universe
		if _, err := eng.Apply(context.Background(), bonsai.Delta{SetRouteMaps: []bonsai.RouteMapEdit{
			{Router: "spine-0-0", Name: "DROP-SEEN", Map: step.m},
		}}); err != nil {
			t.Fatal(err)
		}
		if got := len(eng.Network().MatchedCommunities()); got != step.matched {
			t.Fatalf("%d matched communities after the edit, want %d", got, step.matched)
		}
		cold, err := bonsai.Open(eng.Network())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := classSizes(t, eng), classSizes(t, cold); !maps.Equal(got, want) {
			t.Fatalf("abstract sizes after the edit differ from a cold Open's:\n%v\n%v", got, want)
		}
		if got, want := bonsai.QueryFingerprint(t, eng), bonsai.QueryFingerprint(t, cold); got != want {
			t.Fatal("reach after the edit differs from a cold Open's")
		}
		cold.Close()
	}
}

// TestApplyAdoptsByTheTransportLabel: adoption judges the edges of a router
// a delta edits by the label transport compares, read on both sides of the
// apply. After each Apply every class's abstract size must equal a cold
// Open's. On the matched-tag probe (testdata/regress/matched-tag.cfg) the
// edit relabels an edge of a router it does not touch, whose class must be
// invalidated. On Fattree(4) a denied export and a widened prefix list each
// change one class's live edges, so 7 classes adopt and 1 is invalidated;
// with match outcomes left out of the label the widened list would adopt
// all 8. A tag no route map matches changes no label.
func TestApplyAdoptsByTheTransportLabel(t *testing.T) {
	probe, err := bonsai.ParseFile("testdata/regress/matched-tag.cfg")
	if err != nil {
		t.Fatal(err)
	}
	fattree := netgen.Fattree(4, netgen.PolicyShortestPath)
	ownMatch := []bonsai.Match{{Kind: bonsai.MatchPrefix, Arg: "OWN"}}
	for _, tc := range []struct {
		name                 string
		net                  *bonsai.Network
		delta                bonsai.Delta
		adopted, invalidated int // -1: not pinned
	}{
		{"matched tag", probe, bonsai.Delta{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "z", Name: "DROP", Map: &bonsai.RouteMap{
			Clauses: []bonsai.Clause{{Seq: 10, Action: bonsai.Deny, Matches: []bonsai.Match{{Kind: bonsai.MatchCommunity, Arg: "TAG"}}}},
		}}}}, 0, 1},
		{"export denied", fattree, bonsai.Delta{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "edge-1-0", Name: "EXPORT-OWN", Map: &bonsai.RouteMap{
			Clauses: []bonsai.Clause{{Seq: 10, Action: bonsai.Deny}},
		}}}}, 7, 1},
		{"prefix list widened", fattree, bonsai.Delta{SetPrefixLists: []bonsai.PrefixListEdit{{Router: "edge-0-0", Name: "OWN", List: &bonsai.PrefixList{
			Entries: []bonsai.PrefixEntry{{Action: bonsai.Permit, Prefix: mustPfx("10.0.0.0/24")}, {Action: bonsai.Permit, Prefix: mustPfx("10.0.2.0/24")}},
		}}}}, 7, 1},
		{"unmatched tag", fattree, bonsai.Delta{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "edge-0-0", Name: "EXPORT-OWN", Map: &bonsai.RouteMap{
			Clauses: []bonsai.Clause{{Seq: 10, Action: bonsai.Permit, Matches: ownMatch, Sets: []bonsai.Set{{Kind: bonsai.SetAddCommunity, Comm: protocols.MakeCommunity(65000, 9)}}}},
		}}}}, -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := bonsai.Open(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			classSizes(t, eng)
			rep, err := eng.Apply(context.Background(), tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := bonsai.Open(eng.Network())
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			if got, want := classSizes(t, eng), classSizes(t, cold); !maps.Equal(got, want) {
				t.Fatalf("abstract sizes after the apply (adopted %d, invalidated %v) differ from a cold Open's:\n%v\n%v",
					rep.Adopted, rep.InvalidatedPrefixes, got, want)
			}
			t.Logf("adopted %d, invalidated %v", rep.Adopted, rep.InvalidatedPrefixes)
			if tc.adopted >= 0 && (rep.Adopted != tc.adopted || rep.Invalidated != tc.invalidated) {
				t.Fatalf("adopted %d and invalidated %d, want %d and %d", rep.Adopted, rep.Invalidated, tc.adopted, tc.invalidated)
			}
		})
	}
}

// TestApplyLinkFlapBytes is a ceiling on what one link flap's Apply
// allocates on the serve-churn network, Fattree(12) (1 728 directed edges)
// with every class warm: about 241 KB. The 66 classes it adopts carry their
// liveness across as one bit per edge, 14 KB in all; as one bool per edge
// it was 114 KB, and the apply 344 KB. The ceiling of 260 000 bytes leaves
// 8 % above the measure: going back to bool vectors fails here by name.
func TestApplyLinkFlapBytes(t *testing.T) {
	ctx := context.Background()
	eng := openFattree(t, 12, netgen.PolicyShortestPath)
	defer eng.Close()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	link := []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}
	flap := func(n int) {
		for i := range n {
			d := bonsai.Delta{LinkDown: link}
			if i%2 == 1 {
				d = bonsai.Delta{LinkUp: link}
			}
			rep, err := eng.Apply(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Adopted != 66 {
				t.Fatalf("apply %d adopted %d classes, want the 66 the flap leaves warm", i, rep.Adopted)
			}
		}
	}
	flap(2)
	const applies, ceiling = 40, 260_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flap(applies)
	runtime.ReadMemStats(&after)
	perApply := (after.TotalAlloc - before.TotalAlloc) / applies
	t.Logf("one flap allocates %d bytes", perApply)
	if perApply > ceiling {
		t.Fatalf("one link flap on Fattree(12) allocates %d bytes, ceiling %d", perApply, ceiling)
	}
}
