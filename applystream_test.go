package bonsai_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/config"
	"bonsai/internal/faultinject"
	"bonsai/internal/netgen"
)

// feed returns a closed, pre-filled channel: ApplyStream drains it
// deterministically (one gather loop, no timing dependence).
func feed(deltas ...bonsai.Delta) <-chan bonsai.Delta {
	ch := make(chan bonsai.Delta, len(deltas))
	for _, d := range deltas {
		ch <- d
	}
	close(ch)
	return ch
}

// verifyCounts compares the engine's answers and roles against a cold Open
// on the engine's current configuration — the field-identical acceptance
// check of the robustness contract.
func verifyCounts(t *testing.T, eng *bonsai.Engine) {
	t.Helper()
	bonsai.CheckConsistentSnapshot(t, eng)
	ctx := context.Background()
	fresh, err := bonsai.Open(eng.Network())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	warmRoles, err := eng.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	coldRoles, err := fresh.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if *warmRoles != *coldRoles {
		t.Fatalf("roles diverge: warm %+v cold %+v", warmRoles, coldRoles)
	}
}

func TestApplyStreamFlapStormInvalidatesZero(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	before := bonsai.QueryFingerprint(t, eng)

	// Storm: every core-adjacent link of two pods flaps down and back up,
	// several times, all queued before the stream starts — the batch must
	// cancel to nothing.
	links := []bonsai.LinkRef{
		{A: "agg-0-0", B: "core-0"}, {A: "agg-0-1", B: "core-2"},
		{A: "agg-1-0", B: "core-1"}, {A: "agg-1-1", B: "core-3"},
	}
	var storm []bonsai.Delta
	for round := 0; round < 3; round++ {
		for _, l := range links {
			storm = append(storm, bonsai.Delta{LinkDown: []bonsai.LinkRef{l}})
		}
		for _, l := range links {
			storm = append(storm, bonsai.Delta{LinkUp: []bonsai.LinkRef{l}})
		}
	}
	rep, err := eng.ApplyStream(ctx, feed(storm...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalidated != 0 || rep.NewClasses != 0 || rep.Adopted != 0 {
		t.Fatalf("flap storm must invalidate zero classes, got %+v", rep)
	}
	if rep.EmptyBatches != rep.Batches || rep.Batches == 0 {
		t.Fatalf("storm batches should all cancel empty: %+v", rep)
	}
	if rep.EditsApplied != 0 || rep.Coalesced != len(storm) {
		t.Fatalf("all %d edits should coalesce away: %+v", len(storm), rep)
	}
	if got := bonsai.QueryFingerprint(t, eng); got != before {
		t.Fatal("queries changed across a state-preserving flap storm")
	}
}

// streamDifferential streams the delta log into one engine and applies it
// delta-by-delta to another, then checks that both hold one configuration
// and that each answers as a cold Open of it.
func streamDifferential(t *testing.T, cfg *bonsai.Network, log []bonsai.Delta, opts ...bonsai.StreamApplyOption) {
	t.Helper()
	ctx := context.Background()
	streamed, err := bonsai.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := bonsai.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.ApplyStream(ctx, feed(log...), opts...); err != nil {
		t.Fatal(err)
	}
	applied := 0
	for _, d := range log {
		if _, err := naive.Apply(ctx, d); err != nil {
			t.Fatalf("naive apply of %+v: %v", d, err)
		}
		applied++
	}
	if applied != len(log) {
		t.Fatalf("naive applied %d of %d deltas", applied, len(log))
	}
	// A batch is its deltas applied in order, so the two engines hold one
	// configuration; each must also answer as a cold open of it does.
	if got, want := config.PrintString(streamed.Network()), config.PrintString(naive.Network()); got != want {
		t.Fatalf("streamed configuration:\n%s\nper-delta configuration:\n%s", got, want)
	}
	verifyCounts(t, streamed)
	verifyCounts(t, naive)
}

func TestApplyStreamDifferentialScenarios(t *testing.T) {
	permitAll := &bonsai.RouteMap{Clauses: []bonsai.Clause{{Action: bonsai.Permit}}}
	scenarios := []struct {
		name string
		cfg  *bonsai.Network
		log  []bonsai.Delta
	}{
		{
			"fattree-shortest", netgen.Fattree(4, netgen.PolicyShortestPath),
			[]bonsai.Delta{
				{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
				{LinkDown: []bonsai.LinkRef{{A: "agg-1-0", B: "core-0"}}},
				{LinkUp: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
				{AddOriginated: []bonsai.OriginEdit{{Router: "edge-0-0", Prefix: "10.99.0.0/24"}}},
			},
		},
		{
			"fattree-prefer-bottom", netgen.Fattree(4, netgen.PolicyPreferBottom),
			[]bonsai.Delta{
				{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
				{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "core-0", Name: "stream-test-rm", Map: permitAll}}},
				{SetRouteMaps: []bonsai.RouteMapEdit{{Router: "core-0", Name: "stream-test-rm", Map: nil}}},
				{LinkUp: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
			},
		},
		{
			"mesh-origin-churn", netgen.FullMesh(8),
			[]bonsai.Delta{
				{AddOriginated: []bonsai.OriginEdit{{Router: "r-0001", Prefix: "10.50.0.0/24"}}},
				{RemoveOriginated: []bonsai.OriginEdit{{Router: "r-0001", Prefix: "10.50.0.0/24"}}},
				{AddOriginated: []bonsai.OriginEdit{{Router: "r-0002", Prefix: "10.51.0.0/24"}}},
				{LinkDown: []bonsai.LinkRef{{A: "r-0003", B: "r-0004"}}},
			},
		},
		{
			"spineleaf-pref", netgen.SpineLeaf(netgen.SpineLeafOptions{PreferExternal: true}),
			[]bonsai.Delta{
				{LinkDown: []bonsai.LinkRef{{A: "spine-0", B: "leaf-0"}}},
				{LinkDown: []bonsai.LinkRef{{A: "spine-1", B: "leaf-1"}}},
				{LinkUp: []bonsai.LinkRef{{A: "spine-0", B: "leaf-0"}}},
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			streamDifferential(t, sc.cfg, sc.log)
		})
		t.Run(sc.name+"/max-pending-1", func(t *testing.T) {
			// MaxPending=1 degenerates the stream to per-delta batches —
			// the naive shape through the stream machinery.
			streamDifferential(t, sc.cfg, sc.log, bonsai.WithMaxPending(1))
		})
	}
}

func TestApplyStreamDifferentialRandomized(t *testing.T) {
	cfg := netgen.Fattree(4, netgen.PolicyShortestPath)
	var flappable []bonsai.LinkRef
	for _, l := range cfg.Links {
		flappable = append(flappable, bonsai.LinkRef{A: l.A, B: l.B})
	}
	routers := cfg.RouterNames()
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		var log []bonsai.Delta
		for i := 0; i < 30; i++ {
			switch rng.Intn(4) {
			case 0:
				log = append(log, bonsai.Delta{LinkDown: []bonsai.LinkRef{flappable[rng.Intn(len(flappable))]}})
			case 1:
				log = append(log, bonsai.Delta{LinkUp: []bonsai.LinkRef{flappable[rng.Intn(len(flappable))]}})
			case 2:
				log = append(log, bonsai.Delta{AddOriginated: []bonsai.OriginEdit{{
					Router: routers[rng.Intn(len(routers))],
					Prefix: "10.200.0.0/24",
				}}})
			default:
				log = append(log, bonsai.Delta{RemoveOriginated: []bonsai.OriginEdit{{
					Router: routers[rng.Intn(len(routers))],
					Prefix: "10.200.0.0/24",
				}}})
			}
		}
		// LinkUp of an existing up link and RemoveOriginated of an absent
		// prefix are valid no-ops for both engines, so the raw log is
		// directly comparable.
		t.Run("", func(t *testing.T) {
			streamDifferential(t, cfg, log)
		})
	}
}

func TestApplyStreamBackpressure(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	const deltas = 40
	ch := make(chan bonsai.Delta)
	go func() {
		defer close(ch)
		for i := 0; i < deltas; i++ {
			if i%2 == 0 {
				ch <- bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}
			} else {
				ch <- bonsai.Delta{LinkUp: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}
			}
		}
	}()
	rep, err := eng.ApplyStream(ctx, ch, bonsai.WithMaxPending(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas != deltas {
		t.Fatalf("stream consumed %d of %d deltas", rep.Deltas, deltas)
	}
	if rep.MaxPending > 8 {
		t.Fatalf("queue depth %d exceeded WithMaxPending(8)", rep.MaxPending)
	}
	if rep.Batches < deltas/8 {
		t.Fatalf("too few batches for the pending bound: %+v", rep)
	}
	if st := eng.ApplyStats(); st.Pending != 0 || st.Received == 0 {
		t.Fatalf("final ApplyStats = %+v", st)
	}
}

func TestApplyStreamStalenessFlush(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan bonsai.Delta)
	type result struct {
		rep *bonsai.ApplyStreamReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := eng.ApplyStream(ctx, ch, bonsai.WithMaxStaleness(10*time.Millisecond))
		done <- result{rep, err}
	}()
	ch <- bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}
	// The channel stays open: only the staleness window can flush this.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("staleness window never flushed the batch")
		default:
		}
		if idx := eng.Network().FindLink("agg-0-0", "core-0"); idx >= 0 && eng.Network().Links[idx].Down {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if res.rep.FlushStale == 0 {
		t.Fatalf("report should count a stale flush: %+v", res.rep)
	}
}

func TestApplyStreamCloseDrainsWithErrClosed(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	ch := make(chan bonsai.Delta)
	type result struct {
		rep *bonsai.ApplyStreamReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := eng.ApplyStream(ctx, ch, bonsai.WithMaxStaleness(time.Minute))
		done <- result{rep, err}
	}()
	ch <- bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if !errors.Is(res.err, bonsai.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", res.err)
		}
		if res.rep == nil || res.rep.Deltas != 1 || res.rep.Batches != 0 {
			t.Fatalf("report = %+v, want 1 delta received, pending batch abandoned", res.rep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyStream did not drain after Close")
	}
}

func TestApplyStreamRejectsInvalidDeltasAndContinues(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	log := []bonsai.Delta{
		{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
		{LinkDown: []bonsai.LinkRef{{A: "no-such", B: "router"}}},
		{AddOriginated: []bonsai.OriginEdit{{Router: "edge-0-0", Prefix: "bogus"}}},
		{AddOriginated: []bonsai.OriginEdit{{Router: "edge-0-0", Prefix: "10.77.0.0/24"}}},
	}
	rep, err := eng.ApplyStream(ctx, feed(log...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 2 || rep.Deltas != 4 {
		t.Fatalf("report = %+v, want 2 of 4 rejected", rep)
	}
	verifyCounts(t, eng)
	idx := eng.Network().FindLink("agg-0-0", "core-0")
	if idx < 0 || !eng.Network().Links[idx].Down {
		t.Fatal("valid edits around the rejected deltas were not applied")
	}
}

func TestApplyStreamOversizedBurstDegrades(t *testing.T) {
	cfg := netgen.Fattree(4, netgen.PolicyShortestPath)
	eng, err := bonsai.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	// Take down over a quarter of the links in one burst.
	var log []bonsai.Delta
	for i, l := range cfg.Links {
		if i%3 != 0 {
			continue
		}
		log = append(log, bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: l.A, B: l.B}}})
	}
	rep, err := eng.ApplyStream(ctx, feed(log...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedBatches == 0 {
		t.Fatalf("oversized burst should degrade to a cold swap: %+v", rep)
	}
	verifyCounts(t, eng)
}

// TestApplyStreamConcurrentQueries is the race coverage of queries beside a
// flap storm: queries racing the stream must always see a consistent
// snapshot.
func TestApplyStreamConcurrentQueries(t *testing.T) {
	eng := openFattree(t, 4, netgen.PolicyShortestPath)
	ctx := context.Background()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	dest := eng.Classes()[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Reach(ctx, "edge-0-0", dest); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var log []bonsai.Delta
	for i := 0; i < 10; i++ {
		log = append(log,
			bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
			bonsai.Delta{LinkUp: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}},
		)
	}
	if _, err := eng.ApplyStream(ctx, feed(log...), bonsai.WithMaxPending(3)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	verifyCounts(t, eng)
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestApplyStreamContract induces, through the public API, each clause of
// ApplyStream's contract, each cut rule by the counts it reports. Also
// covered elsewhere: TestApplyStreamBackpressure (the queue never outgrows
// WithMaxPending under a live producer) and internal/server's
// TestServerReplay (the drain cut lets a streamed flap storm coalesce).
func TestApplyStreamContract(t *testing.T) {
	down := bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}
	up := bonsai.Delta{LinkUp: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}}}
	invalid := bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "no-such", B: "router"}}}
	// flaps returns n deltas taking one link down and up in turn.
	flaps := func(n int) []bonsai.Delta {
		out := make([]bonsai.Delta, n)
		for i := range out {
			out[i] = down
			if i%2 == 1 {
				out[i] = up
			}
		}
		return out
	}
	open := func(t *testing.T) *bonsai.Engine {
		eng := openFattree(t, 4, netgen.PolicyShortestPath)
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	type result struct {
		rep *bonsai.ApplyStreamReport
		err error
	}
	// start runs the stream on its own goroutine.
	start := func(ctx context.Context, eng *bonsai.Engine, ch <-chan bonsai.Delta, opts ...bonsai.StreamApplyOption) <-chan result {
		done := make(chan result, 1)
		go func() {
			rep, err := eng.ApplyStream(ctx, ch, opts...)
			done <- result{rep, err}
		}()
		return done
	}
	// checkCuts compares how many batches each rule cut.
	checkCuts := func(t *testing.T, rep *bonsai.ApplyStreamReport, drain, pending, stale, closed int) {
		t.Helper()
		got := [5]int{rep.Batches, rep.FlushDrain, rep.FlushPending, rep.FlushStale, rep.FlushClose}
		if want := [5]int{drain + pending + stale + closed, drain, pending, stale, closed}; got != want {
			t.Fatalf("batches, drain, pending, stale, close cuts = %v, want %v (%+v)", got, want, rep)
		}
	}
	ctx := context.Background()

	t.Run("close-cut-burst", func(t *testing.T) {
		// A fully buffered burst never leaves the channel empty: it is one
		// batch, cut when the channel closes.
		rep, err := open(t).ApplyStream(ctx, feed(flaps(5)...))
		if err != nil {
			t.Fatal(err)
		}
		checkCuts(t, rep, 0, 0, 0, 1)
		if rep.Deltas != 5 || rep.MaxPending != 5 {
			t.Fatalf("report = %+v, want 5 deltas in one batch", rep)
		}
	})

	t.Run("pending-cut", func(t *testing.T) {
		// The count bound is checked before the channel is polled: ten
		// buffered deltas under WithMaxPending(3) cut 3+3+3, then 1 at close.
		rep, err := open(t).ApplyStream(ctx, feed(flaps(10)...), bonsai.WithMaxPending(3))
		if err != nil {
			t.Fatal(err)
		}
		checkCuts(t, rep, 0, 3, 0, 1)
		if rep.Deltas != 10 || rep.MaxPending != 3 {
			t.Fatalf("report = %+v, want 10 deltas, queue depth 3", rep)
		}
	})

	t.Run("drain-cut", func(t *testing.T) {
		// Without a staleness window a batch is cut once a non-blocking poll
		// finds the channel empty: a producer that waits for each batch to
		// land before it sends again gets one batch per delta.
		eng := open(t)
		ch := make(chan bonsai.Delta)
		landed := make(chan struct{}, 1)
		done := start(ctx, eng, ch, bonsai.WithBatchObserver(func(*bonsai.ApplyReport) { landed <- struct{}{} }))
		for _, d := range flaps(3) {
			ch <- d
			<-landed
		}
		close(ch)
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		checkCuts(t, res.rep, 3, 0, 0, 0)
	})

	t.Run("staleness-gathers", func(t *testing.T) {
		// A staleness window keeps gathering across gaps that would each
		// cut a batch by drain: four spaced deltas are one batch.
		eng := open(t)
		ch := make(chan bonsai.Delta)
		done := start(ctx, eng, ch, bonsai.WithMaxStaleness(time.Minute))
		for _, d := range flaps(4) {
			ch <- d
			time.Sleep(2 * time.Millisecond)
		}
		close(ch)
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		checkCuts(t, res.rep, 0, 0, 0, 1)
		if res.rep.Deltas != 4 || res.rep.MaxPending != 4 {
			t.Fatalf("report = %+v, want 4 deltas in one batch", res.rep)
		}
	})

	t.Run("cancel-abandons", func(t *testing.T) {
		eng := open(t)
		before := eng.Network()
		ctx, cancel := context.WithCancel(ctx)
		ch := make(chan bonsai.Delta)
		done := start(ctx, eng, ch, bonsai.WithMaxStaleness(time.Minute))
		ch <- down
		waitFor(t, "the delta to be pending", func() bool { return eng.ApplyStats().Pending == 1 })
		cancel()
		res := <-done
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", res.err)
		}
		checkCuts(t, res.rep, 0, 0, 0, 0)
		if res.rep.Deltas != 1 || eng.Network() != before {
			t.Fatalf("report = %+v; the pending delta must be read and abandoned", res.rep)
		}
		if st := eng.ApplyStats(); st.Pending != 0 {
			t.Fatalf("ApplyStats after cancel = %+v, want nothing pending", st)
		}
	})

	t.Run("stale-cut-open-channel", func(t *testing.T) {
		// One delta on a channel that stays open: only the staleness window
		// cuts it, as a batch of one.
		eng := open(t)
		ctx, cancel := context.WithCancel(ctx)
		ch := make(chan bonsai.Delta)
		landed := make(chan struct{}, 1)
		done := start(ctx, eng, ch, bonsai.WithMaxStaleness(5*time.Millisecond),
			bonsai.WithBatchObserver(func(*bonsai.ApplyReport) { landed <- struct{}{} }))
		ch <- down
		select {
		case <-landed:
		case <-time.After(5 * time.Second):
			t.Fatal("staleness window never cut the batch")
		}
		cancel()
		res := <-done
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", res.err)
		}
		checkCuts(t, res.rep, 0, 0, 1, 0)
		if res.rep.Deltas != 1 || res.rep.MaxPending != 1 {
			t.Fatalf("report = %+v, want a stale cut of 1 delta", res.rep)
		}
	})

	t.Run("close-abandons", func(t *testing.T) {
		// Engine.Close stops the stream: the pending batch is read, never
		// landed, and the stream returns ErrClosed.
		eng := open(t)
		ch := make(chan bonsai.Delta)
		done := start(ctx, eng, ch, bonsai.WithMaxStaleness(time.Minute),
			bonsai.WithBatchObserver(func(r *bonsai.ApplyReport) {
				t.Errorf("a batch landed after Close: %+v", r)
			}))
		ch <- down
		waitFor(t, "the delta to be pending", func() bool { return eng.ApplyStats().Pending == 1 })
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if !errors.Is(res.err, bonsai.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", res.err)
		}
		checkCuts(t, res.rep, 0, 0, 0, 0)
		if res.rep.Deltas != 1 {
			t.Fatalf("report = %+v, want 1 delta read and abandoned", res.rep)
		}
	})

	t.Run("rejected-do-not-batch", func(t *testing.T) {
		// Rejected deltas are counted but never queued: of six buffered
		// deltas, alternately valid and invalid, only the three valid ones
		// make up the close-cut batch.
		var log []bonsai.Delta
		for _, d := range flaps(3) {
			log = append(log, d, invalid)
		}
		rep, err := open(t).ApplyStream(ctx, feed(log...))
		if err != nil {
			t.Fatal(err)
		}
		checkCuts(t, rep, 0, 0, 0, 1)
		if rep.Deltas != 6 || rep.Rejected != 3 || rep.MaxPending != 3 {
			t.Fatalf("report = %+v, want 6 read, 3 rejected, 3 batched", rep)
		}
	})

	t.Run("lone-rejected-flushes-nothing", func(t *testing.T) {
		eng := open(t)
		rep, err := eng.ApplyStream(ctx, feed(invalid), bonsai.WithBatchObserver(func(r *bonsai.ApplyReport) {
			t.Errorf("a lone rejected delta landed a batch: %+v", r)
		}))
		if err != nil {
			t.Fatal(err)
		}
		checkCuts(t, rep, 0, 0, 0, 0)
		if rep.Deltas != 1 || rep.Rejected != 1 || rep.MaxPending != 0 {
			t.Fatalf("report = %+v, want 1 delta read and rejected", rep)
		}
	})

	t.Run("apply-error-aborts", func(t *testing.T) {
		eng := open(t)
		before := eng.Network()
		t.Cleanup(faultinject.Reset)
		faultinject.Arm(faultinject.ApplySwap, func(string) { panic("swap poisoned") })
		rep, err := eng.ApplyStream(ctx, feed(flaps(3)...), bonsai.WithMaxPending(1))
		if err == nil || !strings.Contains(err.Error(), "apply panicked") {
			t.Fatalf("err = %v, want the contained apply panic", err)
		}
		checkCuts(t, rep, 0, 1, 0, 0)
		if rep.Deltas != 1 || eng.Network() != before {
			t.Fatalf("report = %+v; the stream must stop reading at the failed batch, snapshot unchanged", rep)
		}
	})

	t.Run("no-read-ahead", func(t *testing.T) {
		// A batch lands on the stream's goroutine: while its observer is
		// held, a send into an unbuffered channel cannot complete.
		eng := open(t)
		ch := make(chan bonsai.Delta)
		inObserver, release := make(chan struct{}), make(chan struct{})
		done := start(ctx, eng, ch, bonsai.WithBatchObserver(func(*bonsai.ApplyReport) {
			inObserver <- struct{}{}
			<-release
		}))
		ch <- down
		<-inObserver
		sent := make(chan struct{})
		go func() {
			ch <- up
			close(sent)
		}()
		select {
		case <-sent:
			t.Fatal("a send completed while a batch was landing: the stream read ahead")
		case <-time.After(20 * time.Millisecond):
		}
		release <- struct{}{}
		<-sent
		close(ch)
		<-inObserver // the second batch, drain- or close-cut by timing
		release <- struct{}{}
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.rep.Deltas != 2 || res.rep.Batches != 2 {
			t.Fatalf("report = %+v, want 2 deltas in 2 batches", res.rep)
		}
	})

	t.Run("live-stats-count-rejected", func(t *testing.T) {
		// ApplyStats counts every delta read so far, rejected ones included,
		// while the stream runs.
		eng := open(t)
		ctx, cancel := context.WithCancel(ctx)
		ch := make(chan bonsai.Delta)
		done := start(ctx, eng, ch, bonsai.WithMaxStaleness(time.Minute))
		ch <- invalid
		waitFor(t, "the rejected delta to be counted", func() bool {
			st := eng.ApplyStats()
			return st.Received == 1 && st.Rejected == 1
		})
		ch <- down
		waitFor(t, "the valid delta to be pending", func() bool { return eng.ApplyStats().Pending == 1 })
		got := eng.ApplyStats()
		cancel()
		<-done
		if want := (bonsai.ApplyStats{Pending: 1, Received: 2, Rejected: 1, MaxPending: 1}); got != want {
			t.Fatalf("mid-stream ApplyStats = %+v, want %+v", got, want)
		}
	})
}
