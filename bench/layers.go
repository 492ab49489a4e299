package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"bonsai"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/dataplane"
	"bonsai/internal/ec"
	"bonsai/internal/journal"
	"bonsai/internal/policy"
	"bonsai/internal/sched"
	"bonsai/internal/server"
	"bonsai/internal/srp"
	"bonsai/internal/verify"
)

// The traced run drives every layer of the module from outside, on the
// workload's network and seeded ops, in four sections: the cold pipeline
// layer by layer, the engine's public calls on a mirror engine, the served
// calls against a durable daemon (each replayed on the mirror), and the
// on-disk formats on their own. It is one goroutine with one compiler per
// builder, so its counts repeat exactly for a seed. Root spans name the op
// kind; where the cold pipeline and the query path both call a layer, the
// metric is taken from the workload's own path.
const (
	opCold    = "cold.op"
	opQuery   = "query.op"
	opWrite   = "write.op"
	opBurst   = "burst.op"
	opRecover = "recover.op"
	opProbe   = "probe" // calls made only to time a layer; not part of any op
)

type traced struct {
	w    *workload
	o    runOptions
	ctx  context.Context
	tr   *tracer
	rng  *rand.Rand
	cfg  *config.Network
	text string
	ref  *reference
	m    map[string]metricValue
	r    round // answer checks of the whole run

	// Section hand-offs.
	b      *build.Builder   // warm builder of the first cold op
	comp   *policy.Compiler // its compiler
	mirror *bonsai.Engine   // takes every served op again, in process
	noisy  int              // sections whose stolen-CPU share exceeded stealLimit
	steals []float64
	calibs []float64          // the calibration work (calib.go) between sections, ms
	walls  map[string]float64 // untraced per-op wall (ms) of the workload's own op
	diag   map[string][]float64
}

func (t *traced) set(name, unit string, v float64, samples int) {
	t.m[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

func (t *traced) check(ok bool, format string, args ...any) {
	t.r.attempted++
	if !ok {
		t.r.fail(format, args...)
	}
}

// timed runs f inside a span.
func (t *traced) timed(name string, f func()) time.Duration {
	s := t.tr.begin(name)
	f()
	return t.tr.end(s)
}

func runTraced(w *workload, o runOptions) (*record, error) {
	t := &traced{
		w: w, o: o, ctx: context.Background(), tr: newTracer(),
		rng: seededRand(o.seed, streamTrace), cfg: w.network(),
		m: map[string]metricValue{}, walls: map[string]float64{}, diag: map[string][]float64{},
	}
	t.text = config.PrintString(t.cfg)
	var err error
	if t.ref, err = buildReference(t.cfg, w.poolClasses, seededRand(o.seed, streamPool)); err != nil {
		return nil, err
	}
	t.ref.absNodes, t.ref.absLinks = w.absNodes, w.absLinks
	if o.selftest {
		t.ref.corrupt()
	}
	defer func() {
		if t.comp != nil {
			t.comp.Close()
		}
		if t.mirror != nil {
			t.mirror.Close()
		}
	}()
	t.calibs = append(t.calibs, ms(calibrate()))
	for _, section := range []func() error{t.coldSection, t.engineSection, t.serverSection, t.formatSection} {
		cpu0 := readCPU()
		if err := section(); err != nil {
			return nil, err
		}
		t.calibs = append(t.calibs, ms(calibrate()))
		steal := stealShare(cpu0, readCPU())
		t.steals = append(t.steals, steal)
		if steal > stealLimit {
			t.noisy++
		}
	}
	t.envMetrics()

	rec := &record{
		Workload: w.name, Trace: true, Seconds: o.seconds, Env: readEnvironment(o.seed),
		Attempted: t.r.attempted, Failed: t.r.failed, Failures: t.r.failures, Metrics: t.m, Diag: t.diag,
	}
	rec.Env.StealShare, rec.Env.Dropped = mean(t.steals), t.noisy
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	for _, def := range perLayer {
		if _, ok := t.m[def.name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", def.name)
		}
	}
	if err := writeSpans(filepath.Join(o.outdir, "trace-"+w.name+".jsonl"), t.tr.spans); err != nil {
		return nil, err
	}
	return rec, nil
}

// ---- section 1: the cold pipeline, layer by layer ----

func provSpan(p build.Provenance) string {
	switch p {
	case build.ProvFresh:
		return "build.compress_fresh"
	case build.ProvTransported:
		return "build.compress_transport"
	default:
		return "build.compress_hit"
	}
}

// abstractReach solves the compressed network of one class and returns, per
// concrete node, whether any abstract copy of its group delivers.
func (t *traced) abstractReach(b *build.Builder, cls ec.Class, abs *core.Abstraction) ([]bool, error) {
	var inst *srp.Instance
	var sol *srp.Solution
	var err error
	t.timed("build.abstract_instance", func() { inst, err = b.AbstractInstance(cls, abs) })
	if err != nil {
		return nil, err
	}
	t.timed("srp.solve_abs", func() { sol, err = srp.Solve(inst) })
	if err != nil {
		return nil, err
	}
	var absReach []bool
	t.timed("dataplane.fib", func() {
		absReach = dataplane.New(inst, sol, b.AbstractACLPermitFunc(cls, abs)).ReachableSet()
	})
	out := make([]bool, len(abs.F))
	for u, g := range abs.F {
		for _, c := range abs.Copies[g] {
			out[u] = out[u] || absReach[c]
		}
	}
	return out, nil
}

func (t *traced) coldSection() error {
	n := t.w.traceCold
	var fresh []ec.Class
	for k := 0; k < n; k++ {
		wall := time.Now() // taken apart from the spans, to check their sum against
		op := t.tr.begin(opCold)
		var net *config.Network
		var b *build.Builder
		var classes []ec.Class
		var err error
		t.timed("config.parse", func() { net, err = config.ParseString(t.text) })
		if err != nil {
			return err
		}
		t.timed("build.new", func() { b, err = build.New(net) })
		if err != nil {
			return err
		}
		t.timed("ec.classes", func() { classes = ec.Classes(net) })
		var comp *policy.Compiler
		t.timed("policy.new_compiler", func() { comp = b.NewCompiler(true) })
		nodes, links, allReach := 0, 0, true
		for _, cls := range classes {
			t.timed("build.fingerprint", func() { _, err = b.ClassFingerprint(cls) })
			if err != nil {
				return err
			}
			s := t.tr.begin("")
			abs, prov, err := b.CompressTagged(t.ctx, comp, cls)
			t.tr.endAs(s, provSpan(prov))
			if err != nil {
				return err
			}
			reach, err := t.abstractReach(b, cls, abs)
			if err != nil {
				return err
			}
			nodes += abs.NumAbstractNodes()
			links += abs.NumAbstractEdges()
			for _, ok := range reach {
				allReach = allReach && ok
			}
			if want, pooled := t.ref.reach[cls.Prefix.String()]; pooled {
				t.check(slices.Equal(reach, want), "cold pipeline: class %v reach set differs from the concrete simulator's", cls.Prefix)
			}
			if k == 0 && prov == build.ProvFresh {
				fresh = append(fresh, cls)
			}
		}
		t.tr.end(op)
		t.diag["cold_op_wall_ms"] = append(t.diag["cold_op_wall_ms"], msSince(wall))
		t.check(len(classes) == t.ref.classes && nodes == t.ref.absNodes && links == t.ref.absLinks,
			"cold pipeline: %d classes, %d abstract nodes, %d links; expected %d, %d, %d",
			len(classes), nodes, links, t.ref.classes, t.ref.absNodes, t.ref.absLinks)
		t.check(allReach == t.ref.allReachable(), "cold pipeline: all-reachable=%v, concrete reference says %v", allReach, t.ref.allReachable())
		if k == 0 {
			t.b, t.comp = b, comp
			t.storeMetrics(b, comp, len(classes))
		} else {
			comp.Close()
		}
	}
	t.set("config.bytes", "count", float64(len(t.text)), 1)

	// The workload's own op, untraced, for env.trace_overhead_share.
	if t.w.kind == kindCold {
		cd := &coldDriver{w: t.w, text: t.text, ref: t.ref}
		var walls []float64
		for k := 0; k < n; k++ {
			lat, err := cd.verdict(&t.r, false)
			if err != nil {
				return err
			}
			walls = append(walls, ms(lat))
		}
		t.walls[opCold] = median(walls)
	}
	return t.coldProbes(fresh)
}

// storeMetrics reads the counters of the first cold op's builder and compiler.
func (t *traced) storeMetrics(b *build.Builder, comp *policy.Compiler, classes int) {
	cs := b.AbstractionCacheStats()
	t.set("ec.classes", "count", float64(classes), 1)
	t.set("build.fresh", "count", float64(cs.Fresh), 1)
	t.set("build.transported", "count", float64(cs.Transported), 1)
	t.set("build.served", "count", float64(cs.Served), 1)
	t.set("build.transport_share", "ratio", ratio(float64(cs.Transported), float64(cs.Fresh)+float64(cs.Transported)), int(cs.Misses))
	t.set("build.duplicate_fresh", "count", float64(cs.DuplicateFresh), 1)
	t.set("build.store_live_mb", "MiB", float64(cs.LiveBytes)/(1<<20), 1)
	t.set("build.store_evictions", "count", float64(cs.Evictions), 1)
	bs := comp.M.Stats()
	t.set("bdd.nodes", "count", float64(bs.Nodes), 1)
	t.set("bdd.cache_hit_share", "ratio", ratio(float64(bs.CacheHits), float64(bs.CacheHits+bs.CacheMisses)), int(bs.CacheHits+bs.CacheMisses))
	t.set("bdd.overwrite_share", "ratio", ratio(float64(bs.CacheOverwrites), float64(bs.CacheMisses)), int(bs.CacheMisses))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coldProbes times the layers the cold op only reaches through build:
// refinement itself, edge-key compilation, class lookup, all-pairs verify,
// and the concrete-vs-compressed ratio of the paper's Figure 12.
func (t *traced) coldProbes(fresh []ec.Class) error {
	b, comp := t.b, t.comp
	root := t.tr.begin(opProbe)
	defer t.tr.end(root)

	mode := core.ModeEffective
	if b.HasBGP() {
		mode = core.ModeBGP
	}
	refine := func(cls ec.Class, keys []core.EdgeKey) *core.Abstraction {
		dest, _ := b.G.Lookup(cls.Origins[0])
		var abs *core.Abstraction
		t.timed("core.refine", func() {
			abs = core.FindAbstraction(b.G, dest, core.Options{Mode: mode, EdgeKeys: keys, Prefs: b.PrefsFunc(cls)})
		})
		return abs
	}
	iterations := 0
	for _, cls := range fresh {
		iterations += refine(cls, b.EdgeKeyVec(comp, cls)).Iterations
	}
	t.set("core.refine_iterations", "count", float64(iterations), len(fresh))
	var nodeRatio, linkRatio []float64
	absNodes := 0
	for _, cls := range b.Classes() {
		abs, ok := b.CachedAbstraction(cls)
		if !ok {
			return fmt.Errorf("class %v is not cached after the cold op", cls.Prefix)
		}
		absNodes += abs.NumAbstractNodes()
		nodeRatio = append(nodeRatio, float64(b.G.NumNodes())/float64(abs.NumAbstractNodes()))
		linkRatio = append(linkRatio, float64(b.G.NumLinks())/float64(max(abs.NumAbstractEdges(), 1)))
	}
	t.set("core.node_ratio", "ratio", mean(nodeRatio), len(nodeRatio))
	t.set("core.link_ratio", "ratio", mean(linkRatio), len(linkRatio))
	t.set("core.abs_nodes_sum", "count", float64(absNodes), len(nodeRatio))

	// Edge keys on a compiler that has seen nothing, then again warm: what
	// the relation caches are worth.
	c2 := b.NewCompiler(true)
	defer c2.Close()
	cold := t.timed("policy.edgekeys_cold", func() {
		for _, cls := range t.ref.pool {
			b.EdgeKeyVec(c2, cls)
		}
	})
	t.set("policy.edgekeys_cold_ms", "ms", ms(cold), len(t.ref.pool))
	for _, cls := range t.ref.pool {
		t.timed("policy.edgekeys_warm", func() { b.EdgeKeyVec(c2, cls) })
		t.timed("ec.classfor", func() { ec.ClassFor(t.cfg, cls.Prefix.String()) })
	}

	var res *verify.Result
	var err error
	t.timed("verify.allpairs", func() {
		res, err = verify.AllPairsBonsai(t.ctx, b, verify.Options{Workers: 1, Compilers: []*policy.Compiler{comp}})
	})
	if err != nil {
		return err
	}
	t.check(int(res.AbstractNodeSum) == t.ref.absNodes && (res.Pairs == res.ReachablePairs) == t.ref.allReachable(),
		"verify.AllPairsBonsai: %v; expected %d abstract nodes, all-reachable=%v", res, t.ref.absNodes, t.ref.allReachable())

	// Figure 12's ratio on a few pooled classes: concrete solve against a
	// fresh refinement plus the abstract solve. The two reach sets must agree
	// node by node (CP-equivalence, checked where it is cheapest to see).
	var concMS, absMS float64
	nSpeed := min(speedupPool, len(t.ref.pool))
	for _, cls := range t.ref.pool[:nSpeed] {
		var conc []bool
		concMS += ms(t.timed("srp.solve_conc", func() { conc, _, err = concreteReach(b, cls) }))
		if err != nil {
			return err
		}
		t0 := time.Now()
		abs := refine(cls, b.EdgeKeyVec(comp, cls))
		got, err := t.abstractReach(b, cls, abs)
		if err != nil {
			return err
		}
		absMS += msSince(t0)
		t.check(slices.Equal(got, conc), "class %v: compressed and concrete reach sets differ", cls.Prefix)
	}
	t.set("verify.speedup_x", "ratio", ratio(concMS, absMS), nSpeed)
	return nil
}

// ---- section 2: the engine's public calls, on the mirror ----

func (t *traced) engineSection() error {
	root := t.tr.begin(opProbe)
	defer t.tr.end(root)
	var err error
	t.timed("engine.open", func() { t.mirror, err = bonsai.Open(t.cfg) })
	if err != nil {
		return err
	}
	var cr *bonsai.CompressReport
	var rep *bonsai.Report
	s0 := sched.GlobalStats()
	t.timed("engine.compress", func() { cr, err = t.mirror.Compress(t.ctx, bonsai.ClassSelector{}) })
	if err != nil {
		return err
	}
	s1 := sched.GlobalStats()
	t.set("sched.items", "count", float64(s1.Items-s0.Items), 1)
	t.set("sched.followers", "count", float64(s1.Followers-s0.Followers), 1)
	t.set("sched.steals", "count", float64(s1.Steals-s0.Steals), 1)
	t.timed("engine.verify", func() { rep, err = t.mirror.Verify(t.ctx, bonsai.VerifyRequest{}) })
	if err != nil {
		return err
	}
	err = t.ref.checkVerdict(cr, rep)
	t.check(err == nil, "mirror engine verdict: %v", err)
	return nil
}

// ---- section 3: the served calls, each replayed on the mirror ----

func (t *traced) serverSection() error {
	dir, err := scratchDir(t.o, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := serve(durableConfig(dir, journal.SyncAlways))
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()
	if err := openWarm(t.ctx, s.cl, t.text, t.w); err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		t.timed("server.healthz_rtt", func() { err = s.cl.Healthz(t.ctx) })
		if err != nil {
			return err
		}
	}
	if err := t.queries(s); err != nil {
		return err
	}
	if err := t.writes(s); err != nil {
		return err
	}

	st, err := s.cl.Stats(t.ctx, tenant)
	if err != nil || st.Journal == nil {
		return fmt.Errorf("tenant stats: %+v, %v", st, err)
	}
	t.set("journal.fsyncs_per_delta", "ratio", ratio(float64(st.Journal.Fsyncs), float64(st.Journal.Appends)), int(st.Journal.Appends))
	t.set("journal.checkpoints", "count", float64(st.Journal.Checkpoints), 1)
	text, err := s.cl.Metrics(t.ctx)
	if err != nil {
		return err
	}
	t.set("server.rejected_429", "count", scrape(text, "bonsaid_rejected_total", `reason="query_quota"`), 1)
	t.set("server.rejected_503", "count", scrape(text, "bonsaid_rejected_total", `reason="apply_queue"`)+
		scrape(text, "bonsaid_rejected_total", `reason="draining"`), 1)

	// Recovery, from a crash image (journal tail replayed) and sealed (clean
	// shutdown, relation store beside the checkpoint). Every pair the writer
	// drew is undone by now, so the setup reference holds again.
	sample := t.ref.queries(t.rng, samplePairs)
	recoveries := t.w.traceRecoveries
	recoverOnce := func(span, dataDir string, q query, stop func(*server.Server)) {
		op := t.tr.begin(opRecover)
		var srv *server.Server
		var got bonsai.ReachResult
		var code int
		t.timed(span, func() {
			srv = server.New(durableConfig(dataDir, journal.SyncAlways))
			got, code = handlerReach(srv, q)
		})
		t.tr.end(op)
		t.check(code == http.StatusOK && got.Reachable == q.want, "%s: reach %s -> %s: status %d, got %v, reference says %v", span, q.src, q.dest, code, got.Reachable, q.want)
		stop(srv)
	}
	for i := 0; i < recoveries; i++ {
		img, err := crashImage(t.o, dir)
		if err != nil {
			return err
		}
		recoverOnce("server.recover_crash", img, sample[i%len(sample)], discard)
		os.RemoveAll(img)
	}
	s.stop()
	stopped = true
	for i := 0; i < 3; i++ {
		recoverOnce("server.recover_sealed", dir, sample[(recoveries+i)%len(sample)], (*server.Server).Drain)
	}
	return nil
}

// scrape sums the samples of one Prometheus family whose labels contain sel.
func scrape(text, family, sel string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, sel) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err == nil {
			sum += v
		}
	}
	return sum
}

// queries sends seeded reaches through the client, repeats each on the
// mirror engine, then walks the query path layer by layer on the warm
// builder: class lookup, cache hit, abstract instance, solve, forwarding.
func (t *traced) queries(s *served) error {
	n := t.w.traceQueries
	var tax, rtts []float64
	for _, q := range t.ref.queries(t.rng, n) {
		op := t.tr.begin(opQuery)
		var got, mir *bonsai.ReachResult
		var err error
		rtt := t.timed("server.reach_rtt", func() { got, err = s.cl.Reach(t.ctx, tenant, q.src, q.dest, false) })
		t.check(err == nil && got.Reachable == q.want, "served reach %s -> %s: %+v (%v), reference says %v", q.src, q.dest, got, err, q.want)
		eng := t.timed("engine.reach", func() { mir, err = t.mirror.Reach(t.ctx, q.src, q.dest) })
		t.check(err == nil && mir.Reachable == q.want, "mirror reach %s -> %s: %+v (%v), reference says %v", q.src, q.dest, mir, err, q.want)
		tax = append(tax, float64(rtt-eng)/1e3)
		rtts = append(rtts, ms(rtt))

		var cls ec.Class
		t.timed("ec.classfor", func() { cls, err = ec.ClassFor(t.b.Cfg, q.dest) })
		if err != nil {
			return err
		}
		sp := t.tr.begin("")
		abs, prov, err := t.b.CompressTagged(t.ctx, t.comp, cls)
		t.tr.endAs(sp, provSpan(prov))
		if err != nil {
			return err
		}
		reach, err := t.abstractReach(t.b, cls, abs)
		if err != nil {
			return err
		}
		src, _ := t.b.G.Lookup(q.src)
		t.check(reach[src] == q.want, "layered reach %s -> %s: %v, reference says %v", q.src, q.dest, reach[src], q.want)
		t.tr.end(op)
	}
	t.set("server.reach_tax_us", "us", median(tax), len(tax))
	if t.w.kind == kindRead {
		t.walls[opQuery] = median(rtts)
	}
	return nil
}

// writes sends seeded single-delta applies and one burst through the client.
// Each is applied to the mirror engine too, and to a chain of builders that
// adopt from one another, which times build.New and the adoption sweep on
// their own. After every write a read is checked against the mirror's
// concrete simulator at that exact configuration: history independence,
// measured.
func (t *traced) writes(s *served) error {
	n, burstLen := t.w.traceWrites, t.w.burstLen
	wr := newWriter(t.cfg, t.rng)
	reads := t.ref.queries(t.rng, n+2)
	prev, prevComp := t.b, t.comp
	var adopted, invalidated int
	var tax, rtts []float64

	afterWrite := func(q query, lazy []string) error {
		want, err := t.mirror.ReachConcrete(t.ctx, q.src, q.dest)
		if err != nil {
			return err
		}
		got, err := s.cl.Reach(t.ctx, tenant, q.src, q.dest, false)
		t.check(err == nil && got.Reachable == want.Reachable, "read after write %s -> %s: served %+v (%v), mirror's concrete simulator says %v", q.src, q.dest, got, err, want.Reachable)
		if len(lazy) > 0 {
			// The first compressed query of a class the write invalidated pays
			// for its recompression.
			var res *bonsai.ReachResult
			t.timed("engine.lazy_recompress", func() { res, err = t.mirror.Reach(t.ctx, q.src, lazy[0]) })
			conc, cerr := t.mirror.ReachConcrete(t.ctx, q.src, lazy[0])
			t.check(err == nil && cerr == nil && res.Reachable == conc.Reachable, "lazy recompress %s -> %s: %+v (%v), concrete %+v (%v)", q.src, lazy[0], res, err, conc, cerr)
		}
		return nil
	}

	for i, pair := range wr.pairs(n / 2) {
		for j, delta := range pair {
			op := t.tr.begin(opWrite)
			var rep, mrep *bonsai.ApplyReport
			var err error
			rtt := t.timed("server.apply_rtt", func() { rep, err = s.cl.Apply(t.ctx, tenant, delta) })
			t.check(err == nil, "served apply %+v: %v", delta, err)
			eng := t.timed("engine.apply", func() { mrep, err = t.mirror.Apply(t.ctx, delta) })
			if err != nil {
				return fmt.Errorf("mirror apply %+v: %w", delta, err)
			}
			t.check(rep != nil && rep.Classes == mrep.Classes, "served apply reports %+v, mirror %+v", rep, mrep)
			tax = append(tax, float64(rtt-eng)/1e3)
			rtts = append(rtts, ms(rtt))

			var next *build.Builder
			t.timed("build.new", func() { next, err = build.New(t.mirror.Network().Clone()) })
			if err != nil {
				return err
			}
			nextComp := next.NewCompiler(true)
			var touched []string
			for _, e := range append(append([]bonsai.OriginEdit(nil), delta.AddOriginated...), delta.RemoveOriginated...) {
				touched = append(touched, e.Router)
			}
			var st build.AdoptStats
			t.timed("build.adopt", func() { st, err = next.AdoptFrom(t.ctx, nextComp, prev, build.AdoptDelta{TouchedRouters: touched}) })
			if err != nil {
				return err
			}
			adopted, invalidated = adopted+st.Adopted, invalidated+st.Invalidated
			if prev != t.b {
				prevComp.Close()
			}
			prev, prevComp = next, nextComp
			t.tr.end(op)
			if err := afterWrite(reads[2*i+j], mrep.InvalidatedPrefixes); err != nil {
				return err
			}
		}
	}
	if prev != t.b {
		prevComp.Close()
	}
	t.set("build.adopt_share", "ratio", ratio(float64(adopted), float64(adopted+invalidated)), adopted+invalidated)
	t.set("server.apply_tax_us", "us", median(tax), len(tax))
	if t.w.kind == kindChurn {
		t.walls[opWrite] = median(rtts)
	}

	// One burst through /replay, then the same deltas through ApplyAll.
	body, deltas := wr.burst(burstLen)
	op := t.tr.begin(opBurst)
	var rep, mrep *bonsai.ApplyStreamReport
	var err error
	rtt := t.timed("server.replay_rtt", func() { rep, err = s.cl.Replay(t.ctx, tenant, bytes.NewReader(body), 0, 0) })
	t.check(err == nil && rep.Deltas == len(deltas) && rep.Rejected == 0, "served replay of %d deltas: %+v (%v)", len(deltas), rep, err)
	eng := t.timed("engine.applyall", func() { mrep, err = t.mirror.ApplyAll(t.ctx, deltas) })
	if err != nil {
		return err
	}
	t.tr.end(op)
	if rep == nil {
		rep = &bonsai.ApplyStreamReport{}
	}
	t.set("server.replay_deltas_per_s", "1/s", float64(len(deltas))/rtt.Seconds(), len(deltas))
	t.set("engine.applyall_deltas_per_s", "1/s", float64(len(deltas))/eng.Seconds(), len(deltas))
	t.set("engine.coalesced_share", "ratio", ratio(float64(rep.Coalesced), float64(rep.EditsReceived)), rep.EditsReceived)
	t.set("engine.degraded_batches", "count", float64(rep.DegradedBatches+mrep.DegradedBatches), rep.Batches+mrep.Batches)
	return afterWrite(reads[n], nil)
}

// ---- section 4: the on-disk formats on their own ----

func (t *traced) formatSection() error {
	root := t.tr.begin(opProbe)
	defer t.tr.end(root)
	dir, err := scratchDir(t.o, "formats-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A side journal with the workload's fsync policy and payloads.
	wr := newWriter(t.cfg, t.rng)
	var payloads [][]byte
	for _, pair := range wr.pairs(32) {
		for _, delta := range pair {
			p, err := json.Marshal(delta)
			if err != nil {
				return err
			}
			payloads = append(payloads, p)
		}
	}
	jdir := filepath.Join(dir, "journal")
	j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	appendAll := func() error {
		for _, p := range payloads {
			t.timed("journal.append", func() { _, err = j.Append(p) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := appendAll(); err != nil {
		j.Close()
		return err
	}
	t.set("journal.bytes_per_delta", "count", float64(j.Stats().SegmentBytes)/float64(len(payloads)), len(payloads))
	t.timed("journal.checkpoint", func() { err = j.WriteCheckpoint(j.LastSeq(), []byte(t.text)) })
	if err == nil {
		err = appendAll()
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var ck *journal.Checkpoint
	t.timed("journal.load_checkpoint", func() { ck, err = journal.LoadCheckpoint(jdir) })
	if err != nil {
		return err
	}
	var info journal.ReplayInfo
	replay := t.timed("journal.replay", func() {
		info, err = journal.ReplayDir(jdir, ck.Seq, func(uint64, []byte) error { return nil })
	})
	if err != nil {
		return err
	}
	t.check(info.Records == len(payloads) && !info.Truncated && string(ck.Payload) == t.text, "journal replay: %+v after a %d-byte checkpoint", info, len(ck.Payload))
	t.set("journal.replay_us_per_record", "us", float64(replay)/1e3/float64(max(info.Records, 1)), info.Records)

	// The relation store of the warm builder, loaded into a fresh builder of
	// the same configuration and into one whose links flapped and came back.
	path := filepath.Join(dir, "relstore.bin")
	t.timed("build.relstore_save", func() { err = t.b.SaveRelationStoreFile(path, t.comp) })
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.set("build.relstore_mb", "MiB", float64(fi.Size())/(1<<20), 1)
	same, err := config.ParseString(t.text)
	if err != nil {
		return err
	}
	accepted := 0
	for _, cfg := range []*config.Network{same, t.mirror.Network().Clone()} {
		b, err := build.New(cfg)
		if err != nil {
			return err
		}
		comp := b.NewCompiler(true)
		var loaded int
		t.timed("build.relstore_load", func() { loaded, err = b.LoadRelationStoreFile(path, comp) })
		if err == nil && loaded > 0 {
			accepted++
		}
		comp.Close()
	}
	t.set("build.relstore_accept_share", "ratio", float64(accepted)/2, 2)
	return nil
}

// ---- metrics from spans ----

// spanMetrics maps a per-layer metric to the span it is the self time per
// call of, and the unit's size in nanoseconds.
var spanMetrics = []struct {
	metric, span string
	unitNS       float64
}{
	{"config.parse_ms", "config.parse", 1e6},
	{"ec.classes_ms", "ec.classes", 1e6},
	{"ec.classfor_us", "ec.classfor", 1e3},
	{"build.new_ms", "build.new", 1e6},
	{"build.fingerprint_us", "build.fingerprint", 1e3},
	{"build.compress_fresh_ms", "build.compress_fresh", 1e6},
	{"build.compress_transport_us", "build.compress_transport", 1e3},
	{"build.compress_hit_us", "build.compress_hit", 1e3},
	{"build.abstract_instance_us", "build.abstract_instance", 1e3},
	{"build.adopt_ms", "build.adopt", 1e6},
	{"build.relstore_save_ms", "build.relstore_save", 1e6},
	{"build.relstore_load_ms", "build.relstore_load", 1e6},
	{"policy.edgekeys_warm_us", "policy.edgekeys_warm", 1e3},
	{"core.refine_ms", "core.refine", 1e6},
	{"srp.solve_abs_us", "srp.solve_abs", 1e3},
	{"srp.solve_conc_ms", "srp.solve_conc", 1e6},
	{"dataplane.fib_us", "dataplane.fib", 1e3},
	{"verify.allpairs_ms", "verify.allpairs", 1e6},
	{"engine.open_ms", "engine.open", 1e6},
	{"engine.compress_ms", "engine.compress", 1e6},
	{"engine.verify_ms", "engine.verify", 1e6},
	{"engine.reach_us", "engine.reach", 1e3},
	{"engine.apply_ms", "engine.apply", 1e6},
	{"engine.lazy_recompress_ms", "engine.lazy_recompress", 1e6},
	{"journal.append_us", "journal.append", 1e3},
	{"journal.checkpoint_ms", "journal.checkpoint", 1e6},
	{"server.healthz_rtt_us", "server.healthz_rtt", 1e3},
	{"server.reach_rtt_us", "server.reach_rtt", 1e3},
	{"server.apply_rtt_ms", "server.apply_rtt", 1e6},
	{"server.replay_rtt_ms", "server.replay_rtt", 1e6},
	{"server.recover_crash_ms", "server.recover_crash", 1e6},
	{"server.recover_sealed_ms", "server.recover_sealed", 1e6},
}

// envMetrics derives the span-timed metrics and the run's own conditions.
func (t *traced) envMetrics() {
	// A layer both the cold pipeline and the query path call is reported
	// from the workload's own path; everything else from wherever it ran.
	own := opQuery
	if t.w.kind == kindCold {
		own = opCold
	}
	all, native := selfTimes(t.tr.spans, ""), selfTimes(t.tr.spans, own)
	for _, sm := range spanMetrics {
		st, ok := native[sm.span]
		if !ok {
			st = all[sm.span]
		}
		v := 0.0
		if st.calls > 0 {
			v = float64(st.selfNS) / float64(st.calls) / sm.unitNS
		}
		t.set(sm.metric, perLayerUnit(sm.metric), v, st.calls)
	}

	t.set("env.nproc", "count", float64(runtime.NumCPU()), 1)
	t.set("env.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 1)
	t.set("env.steal_share", "ratio", mean(t.steals), len(t.steals))
	t.set("env.rounds_dropped", "count", float64(t.noisy), len(t.steals))
	t.set("env.calib_ms", "ms", median(t.calibs), len(t.calibs))
	// Traced over untraced wall of the workload's own op: what driving it
	// layer by layer (and replaying it on the mirror) costs.
	opName := map[kind]string{kindCold: opCold, kindRead: opQuery, kindChurn: opWrite}[t.w.kind]
	t.set("env.trace_overhead_share", "ratio", ratio(median(durations(t.tr.spans, opName)), t.walls[opName])-1, len(durations(t.tr.spans, opName)))
}

func perLayerUnit(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
