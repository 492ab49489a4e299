package bonsai

// The reach-memo gauntlet. The memo's one guarantee is history
// independence: an answer is a function of the current snapshot's
// configuration, never of which queries ran before. So every answer an
// engine gives along a chain of deltas — asked twice, so the second comes
// from the memo — must equal the answer of a cold Open of the same
// configuration; one class is solved once however many queries race for it;
// and a failed solve leaves nothing behind. Internal test: it reads the
// snapshot's memo and builder directly.

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/verify"
)

// memoProbe asks (src, dest) of eng compressed and concretely, twice each,
// and requires all four answers to equal cold's.
func memoProbe(t *testing.T, eng, cold *Engine, src, dest string) bool {
	t.Helper()
	ctx := context.Background()
	want, err := cold.ReachConcrete(ctx, src, dest)
	if err != nil {
		t.Fatalf("cold concrete reach %s -> %s: %v", src, dest, err)
	}
	if comp, err := cold.Reach(ctx, src, dest); err != nil || comp.ReachAnswer != want.ReachAnswer {
		t.Fatalf("cold reach %s -> %s: %+v (%v), concrete says %v", src, dest, comp, err, want.Reachable)
	}
	for ask := 0; ask < 2; ask++ {
		for _, q := range []func(context.Context, string, string) (*ReachResult, error){eng.Reach, eng.ReachConcrete} {
			got, err := q(ctx, src, dest)
			if err != nil || got.ReachAnswer != want.ReachAnswer {
				t.Fatalf("ask %d of %s -> %s: %+v (%v), a cold open of the same config says %v",
					ask, src, dest, got, err, want.Reachable)
			}
		}
	}
	return want.Reachable
}

func TestReachMemoDeltaChainMatchesColdOpen(t *testing.T) {
	denyAll := &RouteMap{Clauses: []Clause{{Action: Deny}}}
	scenarios := []struct {
		name string
		cfg  *Network
		// victim is cut off by taking down isolate; muted's export map is
		// replaced by deny-all, which hides mutedDest from everyone else.
		victim    string
		isolate   []LinkRef
		muted     string
		mutedDest string
	}{
		{
			name: "fattree-shortest", cfg: netgen.Fattree(4, netgen.PolicyShortestPath),
			victim: "edge-0-0", isolate: []LinkRef{{A: "edge-0-0", B: "agg-0-0"}, {A: "edge-0-0", B: "agg-0-1"}},
			muted: "edge-1-0",
		},
		{
			name: "fattree-prefer-bottom", cfg: netgen.Fattree(4, netgen.PolicyPreferBottom),
			victim: "edge-2-1", isolate: []LinkRef{{A: "edge-2-1", B: "agg-2-0"}, {A: "edge-2-1", B: "agg-2-1"}},
			muted: "edge-3-0",
		},
		{
			name: "mesh", cfg: netgen.FullMesh(6),
			victim: "r-0000", isolate: []LinkRef{
				{A: "r-0000", B: "r-0001"}, {A: "r-0000", B: "r-0002"}, {A: "r-0000", B: "r-0003"},
				{A: "r-0000", B: "r-0004"}, {A: "r-0000", B: "r-0005"},
			},
			muted: "r-0003",
		},
		{
			name: "spineleaf-pref", cfg: netgen.SpineLeaf(netgen.SpineLeafOptions{Leaves: 4, PreferExternal: true}),
			victim: "ext-0-0", isolate: []LinkRef{{A: "leaf-0", B: "ext-0-0"}},
			muted: "ext-1-1",
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ctx := context.Background()
			eng, err := Open(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
				t.Fatal(err)
			}
			sc.mutedDest = sc.cfg.Routers[sc.muted].Originate[0].String()
			ownExport := sc.cfg.Routers[sc.muted].Env.RouteMaps["EXPORT-OWN"]
			const fresh = "10.200.7.0/24"

			// indexAgrees requires the snapshot's class index and a one-shot
			// enumeration of its configuration to name the same class for q,
			// or both to refuse it; it reports whether q has a class.
			indexAgrees := func(step, q string) bool {
				t.Helper()
				got, gerr := eng.state.Load().b.ClassFor(q)
				want, werr := ec.ClassFor(eng.Network(), q)
				if (gerr != nil) != (werr != nil) || got.Prefix != want.Prefix {
					t.Fatalf("%s: the class index says %v (%v) for %s, a fresh enumeration %v (%v)",
						step, got.Prefix, gerr, q, want.Prefix, werr)
				}
				return gerr == nil
			}

			// check compares every class, from a spread of sources that
			// always includes the victim, with a cold open of the engine's
			// current config, the memo's counters with what was asked, and
			// the class index with a fresh enumeration.
			check := func(step string) map[[2]string]bool {
				t.Helper()
				cold, err := Open(eng.Network())
				if err != nil {
					t.Fatal(err)
				}
				defer cold.Close()
				names := eng.Network().RouterNames()
				sources := []string{sc.victim}
				for i := 0; i < len(names); i += max(1, len(names)/5) {
					sources = append(sources, names[i])
				}
				before := eng.Stats()
				answers := make(map[[2]string]bool)
				classes := eng.Classes()
				for _, dest := range classes {
					for _, src := range sources {
						answers[[2]string{src, dest}] = memoProbe(t, eng, cold, src, dest)
					}
				}
				after := eng.Stats()
				// One miss per fingerprint group compressed and per class
				// concretely.
				group := verify.FingerprintKey(eng.state.Load().b)
				groups := make(map[string]bool)
				for _, dest := range classes {
					cls, err := eng.state.Load().b.ClassFor(dest)
					if err != nil {
						t.Fatal(err)
					}
					groups[group(cls)] = true
				}
				asked := int64(4 * len(classes) * len(sources))
				misses := after.ReachMemoMisses - before.ReachMemoMisses
				if misses != int64(len(groups)+len(classes)) || after.ReachMemoHits-before.ReachMemoHits != asked-misses {
					t.Fatalf("%s: %d asks over %d classes in %d groups gave %d misses and %d hits, want one miss per group compressed and per class concretely",
						step, asked, len(classes), len(groups), misses, after.ReachMemoHits-before.ReachMemoHits)
				}
				// A class index gone stale across Apply fails here: every
				// class prefix and one host address inside each must find
				// the class a fresh enumeration finds.
				for _, dest := range classes {
					p := netip.MustParsePrefix(dest)
					host := netip.PrefixFrom(p.Addr(), p.Addr().BitLen()).String()
					if !indexAgrees(step, dest) || !indexAgrees(step, host) {
						t.Fatalf("%s: class %s or its first address %s has no class", step, dest, host)
					}
				}
				if owned := indexAgrees(step, fresh); owned != (step == "originate") {
					t.Fatalf("%s: %s has a class: %v", step, fresh, owned)
				}
				return answers
			}
			apply := func(step string, d Delta) {
				t.Helper()
				if _, err := eng.Apply(ctx, d); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}

			base := check("open")
			if !base[[2]string{sc.victim, sc.mutedDest}] {
				t.Fatalf("%s cannot reach %s on the healthy network", sc.victim, sc.mutedDest)
			}

			apply("isolate", Delta{LinkDown: sc.isolate})
			if check("isolate")[[2]string{sc.victim, sc.mutedDest}] {
				t.Fatalf("%s still reaches %s with every link down: stale answer", sc.victim, sc.mutedDest)
			}
			apply("reconnect", Delta{LinkUp: sc.isolate})
			if !check("reconnect")[[2]string{sc.victim, sc.mutedDest}] {
				t.Fatalf("%s does not reach %s after its links came back", sc.victim, sc.mutedDest)
			}

			apply("mute", Delta{SetRouteMaps: []RouteMapEdit{{Router: sc.muted, Name: "EXPORT-OWN", Map: denyAll}}})
			if check("mute")[[2]string{sc.victim, sc.mutedDest}] {
				t.Fatalf("%s still reaches %s though %s exports nothing", sc.victim, sc.mutedDest, sc.muted)
			}
			apply("unmute", Delta{SetRouteMaps: []RouteMapEdit{{Router: sc.muted, Name: "EXPORT-OWN", Map: ownExport}}})
			check("unmute")

			if _, err := eng.Reach(ctx, sc.victim, fresh); err == nil {
				t.Fatalf("%s has a class before anyone originates it", fresh)
			}
			apply("originate", Delta{AddOriginated: []OriginEdit{{Router: sc.victim, Prefix: fresh}}})
			if got := check("originate"); !got[[2]string{sc.victim, fresh}] {
				t.Fatalf("%s does not reach the prefix it originates", sc.victim)
			}
			apply("withdraw", Delta{RemoveOriginated: []OriginEdit{{Router: sc.victim, Prefix: fresh}}})
			if _, err := eng.Reach(ctx, sc.victim, fresh); err == nil {
				t.Fatalf("%s still has a class after its only origin withdrew it", fresh)
			}
			final := check("withdraw")
			if len(final) != len(base) {
				t.Fatalf("class set did not return: %d answers, %d at open", len(final), len(base))
			}
			for q, want := range base {
				if final[q] != want {
					t.Fatalf("%s -> %s: %v after the chain undid itself, %v at open", q[0], q[1], final[q], want)
				}
			}
		})
	}
}

func TestReachMemoSolvesAColdClassOnce(t *testing.T) {
	eng, err := Open(netgen.Fattree(8, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dest := eng.Classes()[5]
	names := eng.Network().RouterNames()
	const askers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	answers := make([]bool, askers)
	errs := make([]error, askers)
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := eng.Reach(context.Background(), names[i%len(names)], dest)
			if err == nil {
				answers[i] = res.Reachable
			}
			errs[i] = err
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil || !answers[i] {
			t.Fatalf("asker %d (%s): reachable=%v err=%v", i, names[i%len(names)], answers[i], err)
		}
	}
	st := eng.Stats()
	if st.ReachMemoMisses != 1 || st.ReachMemoHits != askers-1 {
		t.Fatalf("%d concurrent queries of one cold class: %d solves, %d hits; want 1 and %d",
			askers, st.ReachMemoMisses, st.ReachMemoHits, askers-1)
	}
	if st.Misses != 1 {
		t.Fatalf("the class was compressed %d times, want once", st.Misses)
	}
}

// TestRoutesReadsTheReachMemo: ReachConcrete and Routes read one concrete
// analysis per class and snapshot. ReachConcrete solves the class; two
// Routes calls after it are memo hits that answer with the routes a cold
// engine gives; after an Apply, the next Routes solves the class once more.
func TestRoutesReadsTheReachMemo(t *testing.T) {
	ctx := context.Background()
	cfg := netgen.Fattree(4, netgen.PolicyShortestPath)
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dest := eng.Classes()[2]
	counts := func() (misses, hits int64) {
		st := eng.Stats()
		return st.ReachMemoMisses, st.ReachMemoHits
	}
	if _, err := eng.ReachConcrete(ctx, "edge-0-0", dest); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := eng.Routes(ctx, dest); err != nil {
			t.Fatal(err)
		}
	}
	if misses, hits := counts(); misses != 1 || hits != 2 {
		t.Fatalf("ReachConcrete then Routes twice: %d misses, %d hits; want 1 and 2", misses, hits)
	}
	cold, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	want, err := cold.Routes(ctx, dest)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.Routes(ctx, dest); !reflect.DeepEqual(got, want) || len(got.Routes) != len(cfg.Routers) {
		t.Fatalf("memoised routes %+v, a cold engine's %+v", got, want)
	}
	if _, err := eng.Apply(ctx, Delta{LinkDown: []LinkRef{{A: "core-0", B: "agg-0-0"}}}); err != nil {
		t.Fatal(err)
	}
	misses, hits := counts()
	if _, err := eng.Routes(ctx, dest); err != nil {
		t.Fatal(err)
	}
	if m, h := counts(); m != misses+1 || h != hits {
		t.Fatalf("Routes after an Apply: %d misses, %d hits; want %d and %d", m, h, misses+1, hits)
	}
}

// TestReachMemoSolvesEachGroupOnce: the fingerprint group is the one unit
// of work per snapshot. On Datacenter{} (1 297 classes in 171 groups) one
// Reach per class solves once per group, a Verify after those reads solves
// nothing and spends no time compressing, a cold Verify solves once per
// group, and so do reads racing a cold Verify; every Verify answers alike.
func TestReachMemoSolvesEachGroupOnce(t *testing.T) {
	ctx := context.Background()
	net := netgen.Datacenter(netgen.DCOptions{})
	const groups = 171
	open := func() *Engine {
		eng, err := Open(net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	readAll := func(eng *Engine) error {
		src := eng.Network().RouterNames()[0]
		for _, dest := range eng.Classes() {
			if _, err := eng.Reach(ctx, src, dest); err != nil {
				return err
			}
		}
		return nil
	}
	verify := func(eng *Engine) *Report {
		rep, err := eng.Verify(ctx, VerifyRequest{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	warm := open()
	if err := readAll(warm); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.ReachMemoMisses != groups {
		t.Fatalf("one Reach per class solved %d times, want one per group (%d)", st.ReachMemoMisses, groups)
	}
	after := verify(warm)
	if st := warm.Stats(); st.ReachMemoMisses != groups || after.CompressTime != 0 {
		t.Fatalf("a Verify after the reads solved %d times and compressed for %v, want 0 and 0",
			st.ReachMemoMisses-groups, after.CompressTime)
	}

	cold := open()
	want := verify(cold)
	classes := int64(len(cold.Classes()))
	if st := cold.Stats(); st.ReachMemoMisses != groups || st.ReachMemoHits != classes-groups {
		t.Fatalf("a cold Verify: %d misses and %d hits, want %d and %d",
			st.ReachMemoMisses, st.ReachMemoHits, groups, classes-groups)
	}

	racing := open()
	read := make(chan error, 1)
	go func() { read <- readAll(racing) }()
	raced := verify(racing)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if st := racing.Stats(); st.ReachMemoMisses != groups {
		t.Fatalf("reads racing a cold Verify solved %d times, want %d", st.ReachMemoMisses, groups)
	}
	if after.VerifyAnswer != want.VerifyAnswer || raced.VerifyAnswer != want.VerifyAnswer {
		t.Fatalf("Verify after reads %+v, racing reads %+v, cold %+v", after.VerifyAnswer, raced.VerifyAnswer, want.VerifyAnswer)
	}
}

// allocated is what fn allocates on the heap, in bytes.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReachMemoHitAllocatesNoEnumeration holds the hit path to its result:
// once a class is solved, a query of it is an index walk, a memo lookup and a
// bit test. Enumerating the classes again, as every query once did, is
// hundreds of kilobytes.
func TestReachMemoHitAllocatesNoEnumeration(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(netgen.Fattree(8, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dest, src := eng.Classes()[3], "edge-5-2"
	ask := func(n int) {
		for i := 0; i < n; i++ {
			if res, err := eng.Reach(ctx, src, dest); err != nil || !res.Reachable {
				t.Fatalf("reach %s -> %s: %+v, %v", src, dest, res, err)
			}
		}
	}
	ask(1) // the solve
	const hits = 200
	if got := allocated(func() { ask(hits) }); got >= hits*256 {
		t.Fatalf("%d memo hits allocated %d bytes, want under 256 each", hits, got)
	}
	if st := eng.Stats(); st.ReachMemoMisses != 1 || st.ReachMemoHits != hits {
		t.Fatalf("counters after the run: %+v", st)
	}
}

// TestReachMemoConcurrentHitsAreCounted races the memo's counters (run under
// -race -count=10): every query is counted as a hit or a miss exactly once.
func TestReachMemoConcurrentHitsAreCounted(t *testing.T) {
	eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	classes, names := eng.Classes(), eng.Network().RouterNames()
	const askers, each = 32, 100
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := eng.Reach(context.Background(), names[(i+j)%len(names)], classes[i%2]); err != nil {
					t.Errorf("asker %d, query %d: %v", i, j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := eng.Stats()
	if st.ReachMemoHits+st.ReachMemoMisses != askers*each || st.ReachMemoMisses != 2 {
		t.Fatalf("%d queries of two classes: %d hits, %d misses", askers*each, st.ReachMemoHits, st.ReachMemoMisses)
	}
}

// cancelWhen is a context that reads as cancelled exactly while cond holds.
type cancelWhen struct {
	context.Context
	cond func() bool
}

func (c cancelWhen) Err() error {
	if c.cond() {
		return context.Canceled
	}
	return nil
}

// waitSpy is a live context that reports the first time someone asks for
// its Done channel, which a query does when it starts waiting for a flight.
type waitSpy struct {
	context.Context
	once    *sync.Once
	waiting func()
}

func (c waitSpy) Done() <-chan struct{} {
	c.once.Do(c.waiting)
	return c.Context.Done()
}

func TestReachMemoForgetsACancelledSolve(t *testing.T) {
	eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dest, src := eng.Classes()[2], "edge-3-1"

	// The leader's context turns cancelled once its flight exists (its miss
	// is counted when it creates the flight), i.e. in the middle of the
	// solve, and holds the solve there until every waiter is waiting on the
	// flight.
	leading, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	leaderCtx := cancelWhen{context.Background(), func() bool {
		if eng.Stats().ReachMemoMisses == 0 {
			return false
		}
		once.Do(func() { close(leading) })
		<-release
		return true
	}}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.Reach(leaderCtx, src, dest)
		leaderErr <- err
	}()
	<-leading
	var waiting, finished sync.WaitGroup
	for i := 0; i < 4; i++ {
		waiting.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			ctx := waitSpy{context.Background(), new(sync.Once), waiting.Done}
			res, err := eng.Reach(ctx, src, dest)
			if err != nil || !res.Reachable {
				t.Errorf("waiter behind a cancelled leader: %+v, %v", res, err)
			}
		}()
	}
	waiting.Wait()
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want its cancellation", err)
	}
	finished.Wait()

	// Whoever solved it in the end, the cancelled flight is gone (a waiter
	// that found it would wait on it forever): the memo holds the one good
	// answer, and a plain query is a hit that agrees with the concrete
	// simulator.
	before := eng.Stats()
	if before.ReachMemoMisses != 2 || before.ReachMemoHits != 3 {
		t.Fatalf("%d solves and %d hits, want the cancelled solve, one retry and three waiters served by it",
			before.ReachMemoMisses, before.ReachMemoHits)
	}
	got, err := eng.Reach(context.Background(), src, dest)
	want, cerr := eng.ReachConcrete(context.Background(), src, dest)
	if err != nil || cerr != nil || got.ReachAnswer != want.ReachAnswer {
		t.Fatalf("after the cancelled solve: %+v (%v), concrete %+v (%v)", got, err, want, cerr)
	}
	if after := eng.Stats(); after.ReachMemoHits != before.ReachMemoHits+1 {
		t.Fatal("the query after the retried solve was not a memo hit")
	}

	// A cancelled solve that nobody waits for leaves nothing either: its
	// class's next query solves it afresh.
	other, solves := eng.Classes()[3], eng.Stats().ReachMemoMisses
	alone := cancelWhen{context.Background(), func() bool { return eng.Stats().ReachMemoMisses > solves }}
	if _, err := eng.Reach(alone, src, other); !errors.Is(err, context.Canceled) {
		t.Fatalf("a solve cancelled midway returned %v", err)
	}
	got, err = eng.Reach(context.Background(), src, other)
	want, cerr = eng.ReachConcrete(context.Background(), src, other)
	if err != nil || cerr != nil || got.ReachAnswer != want.ReachAnswer {
		t.Fatalf("after a lone cancelled solve: %+v (%v), concrete %+v (%v)", got, err, want, cerr)
	}

	// An unknown source or destination fails before the memo is involved.
	if _, err := eng.Reach(context.Background(), "nobody", dest); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := eng.Reach(context.Background(), src, "203.0.113.0/24"); err == nil {
		t.Fatal("unowned destination accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Reach(cancelled, src, dest); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled context got a memo hit: %v", err)
	}
}

func TestReachMemoOutlivesAbstractionEviction(t *testing.T) {
	ctx := context.Background()
	cfg := netgen.Fattree(4, netgen.PolicyShortestPath)
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cold, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	classes, src := eng.Classes(), "edge-2-0"
	for _, dest := range classes {
		if _, err := eng.Reach(ctx, src, dest); err != nil {
			t.Fatal(err)
		}
	}
	// A one-byte budget evicts every abstraction that is not a pinned
	// transport seed. The memo holds bit vectors, not abstractions.
	eng.state.Load().b.SetAbstractionBudget(1)
	before := eng.Stats()
	if before.Evictions == 0 {
		t.Fatal("the budget evicted nothing; the test proves nothing")
	}
	for _, dest := range classes {
		memoProbe(t, eng, cold, src, dest)
	}
	after := eng.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("memo hits recompressed %d evicted classes", after.Misses-before.Misses)
	}
	if got := after.ReachMemoHits - before.ReachMemoHits; got != int64(3*len(classes)) {
		t.Fatalf("%d hits over %d classes, want the compressed answers and the repeated concrete ones", got, len(classes))
	}
}
