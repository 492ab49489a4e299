package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"bonsai"
	"bonsai/internal/config"
	"bonsai/internal/journal"
	"bonsai/internal/server"
)

const tenant = "t"

// served is one in-process bonsaid behind a loopback listener.
type served struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *server.Client
}

func serve(cfg server.Config) *served {
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	return &served{srv: srv, ts: ts, cl: server.NewClient(ts.URL)}
}

// stop closes the listener (waiting for requests in flight) and drains the
// server, which seals durable tenants and ends its goroutines.
func (s *served) stop() {
	s.ts.Close()
	s.srv.Drain()
}

// durableConfig is a daemon with a data directory. The traced run syncs
// every delta before it is acknowledged (the daemon's default, where
// journal.fsyncs_per_delta is exact and journal.append_us shows the cost).
// serve-churn's timed daemon syncs on the daemon's 100 ms timer instead.
// With the fsync on the ack path a quarter of the rounds of a ten-run set
// fell into a mode where every apply took 3.7 ms longer at the same
// calibrated speed (the fsync itself stayed at 0.25 ms, measured beside it),
// and the ten runs spread 12 %; off the ack path it was a tenth of the
// rounds and 5 %.
func durableConfig(dir string, sync journal.SyncPolicy) server.Config {
	return server.Config{
		MaxQueriesPerTenant: 4,
		ApplyQueueDepth:     16,
		DataDir:             dir,
		Fsync:               sync,
		CheckpointEvery:     1024,
	}
}

// openWarm opens the tenant from config text and compresses every class, and
// checks the abstract sizes the paper's result fixes.
func openWarm(ctx context.Context, cl *server.Client, text string, w *workload) error {
	if err := cl.Open(ctx, tenant, strings.NewReader(text)); err != nil {
		return err
	}
	cr, err := cl.Compress(ctx, tenant, bonsai.ClassSelector{})
	if err != nil {
		return err
	}
	if cr.SumAbstractNodes != w.absNodes || cr.SumAbstractLinks != w.absLinks {
		return fmt.Errorf("warm compress gave %d abstract nodes / %d links, expected %d / %d",
			cr.SumAbstractNodes, cr.SumAbstractLinks, w.absNodes, w.absLinks)
	}
	return nil
}

// scratchDir makes a fresh directory under the run's output directory, so
// journals and crash images stay inside the checkout.
func scratchDir(o runOptions, pattern string) (string, error) {
	base := filepath.Join(o.outdir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// ask sends one reach through the client and checks it against q.want.
func ask(ctx context.Context, cl *server.Client, r *round, q query, concrete bool) {
	r.attempted++
	got, err := cl.Reach(ctx, tenant, q.src, q.dest, concrete)
	if err != nil || got.Reachable != q.want {
		r.fail("reach %s -> %s (concrete=%v): got %+v (%v), reference says %v", q.src, q.dest, concrete, got, err, q.want)
	}
}

// ---- serve-read ----

type readDriver struct {
	w   *workload
	o   runOptions
	s   *served
	ref *reference
	bad *query // self-test: the corrupted pair, asked first in every round
}

func newReadDriver(w *workload, o runOptions) (*readDriver, error) {
	ctx := context.Background()
	cfg := w.network()
	text := config.PrintString(cfg)
	d := &readDriver{w: w, o: o}
	var err error
	if d.ref, err = buildReference(cfg, w.poolClasses, seededRand(o.seed, streamPool)); err != nil {
		return nil, err
	}
	if o.selftest {
		q := d.ref.corrupt()
		d.bad = &q
	}
	d.s = serve(server.Config{MaxQueriesPerTenant: 4})
	if err := openWarm(ctx, d.s.cl, text, w); err != nil {
		d.s.stop()
		return nil, err
	}
	for _, q := range d.ref.queries(seededRand(o.seed, streamWarm), 64) {
		if _, err := d.s.cl.Reach(ctx, tenant, q.src, q.dest, false); err != nil {
			d.s.stop()
			return nil, err
		}
	}
	return d, nil
}

func (d *readDriver) runRound(i int) (*round, error) {
	ctx := context.Background()
	qs := d.ref.queries(seededRand(d.o.seed, streamRounds+int64(i)), d.w.opsPerRound)
	if d.bad != nil {
		qs[0] = *d.bad
	}
	r := &round{}
	return r, r.repeat(len(qs), func(k int) (time.Duration, error) {
		t := time.Now()
		ask(ctx, d.s.cl, r, qs[k], false)
		return time.Since(t), nil
	})
}

func (d *readDriver) close() { d.s.stop() }

// ---- write lists shared by serve-churn and the traced run ----

// writer draws seeded configuration edits for one network. Every pair it
// draws undoes itself, so a list of whole pairs returns the network to its
// base configuration.
type writer struct {
	rng     *rand.Rand
	links   []config.Link
	origins []string // routers that originate a prefix (where a new one is plausible)
	next    int      // origin prefixes are never reused within a run
}

func newWriter(cfg *config.Network, rng *rand.Rand) *writer {
	w := &writer{rng: rng, links: cfg.Links}
	for _, name := range cfg.RouterNames() {
		if len(cfg.Routers[name].Originate) > 0 {
			w.origins = append(w.origins, name)
		}
	}
	return w
}

func (w *writer) flap() (down, up bonsai.Delta) {
	l := w.links[w.rng.Intn(len(w.links))]
	ref := []bonsai.LinkRef{{A: l.A, B: l.B}}
	return bonsai.Delta{LinkDown: ref}, bonsai.Delta{LinkUp: ref}
}

func (w *writer) origin() (add, remove bonsai.Delta) {
	w.next++
	e := []bonsai.OriginEdit{{
		Router: w.origins[w.rng.Intn(len(w.origins))],
		Prefix: fmt.Sprintf("10.%d.%d.0/24", 200+w.next/256%50, w.next%256),
	}}
	return bonsai.Delta{AddOriginated: e}, bonsai.Delta{RemoveOriginated: e}
}

// pairs draws n pairs: one in originShare (rounded up) is an origin pair, at
// a seeded position, the rest are flaps. The count is fixed, not drawn, so
// that every round of every seed carries the same mix of cheap and costly
// writes.
func (w *writer) pairs(n int) [][2]bonsai.Delta {
	isOrigin := make([]bool, n)
	for _, i := range w.rng.Perm(n)[:(n+originShare-1)/originShare] {
		isOrigin[i] = true
	}
	out := make([][2]bonsai.Delta, n)
	for i := range out {
		if isOrigin[i] {
			out[i][0], out[i][1] = w.origin()
		} else {
			out[i][0], out[i][1] = w.flap()
		}
	}
	return out
}

// burst is n/2 flap pairs as one JSONL /replay body.
func (w *writer) burst(n int) (body []byte, deltas []bonsai.Delta) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for len(deltas) < n {
		down, up := w.flap()
		deltas = append(deltas, down, up)
		enc.Encode(down)
		enc.Encode(up)
	}
	return buf.Bytes(), deltas
}

// ---- serve-churn ----

type churnDriver struct {
	w      *workload
	o      runOptions
	cfg    *config.Network
	dir    string
	s      *served
	reader *server.Client
	ref    *reference
	sample []query
}

func newChurnDriver(w *workload, o runOptions) (*churnDriver, error) {
	ctx := context.Background()
	d := &churnDriver{w: w, o: o, cfg: w.network()}
	text := config.PrintString(d.cfg)
	var err error
	if d.ref, err = buildReference(d.cfg, w.poolClasses, seededRand(o.seed, streamPool)); err != nil {
		return nil, err
	}
	d.sample = d.ref.queries(seededRand(o.seed, streamWarm), samplePairs)
	if o.selftest {
		d.sample[0] = d.ref.corrupt()
	}
	if d.dir, err = scratchDir(o, "churn-"); err != nil {
		return nil, err
	}
	d.s = serve(durableConfig(d.dir, journal.SyncInterval))
	d.reader = server.NewClient(d.s.ts.URL)
	if err := openWarm(ctx, d.s.cl, text, w); err != nil {
		d.close()
		return nil, err
	}
	wr := newWriter(d.cfg, seededRand(o.seed, streamWarm))
	for _, pair := range wr.pairs(4) {
		for _, delta := range pair {
			if _, err := d.s.cl.Apply(ctx, tenant, delta); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	return d, nil
}

func (d *churnDriver) runRound(i int) (*round, error) {
	ctx := context.Background()
	rng := seededRand(d.o.seed, streamRounds+int64(i))
	wr := newWriter(d.cfg, rng)
	wr.next = i * 1000
	pairs, burstLen := d.w.opsPerRound, d.w.burstLen
	if i%burstEvery != 0 {
		burstLen = 0
	}
	r := &round{diag: map[string]float64{}}

	// Mid-churn answers legitimately vary with the flapped links, so of these
	// reads only errors and refusals count.
	reads := d.ref.queries(rng, (2*pairs+burstLen)*readsPerWrite)
	read := func(r *round, n int) {
		for _, q := range reads[:n] {
			r.attempted++
			if _, err := d.reader.Reach(ctx, tenant, q.src, q.dest, false); err != nil {
				r.fail("reach between writes %s -> %s: %v", q.src, q.dest, err)
			}
		}
		reads = reads[n:]
	}

	// Timed: each single-delta apply, then readsPerWrite reads, which pay for
	// whatever the apply invalidated. The op's latency is the apply's; the
	// reads count in the busy time ops_per_s divides by. The reads follow the
	// write instead of running beside it because on one P whether a read
	// lands inside an apply's round trip is the scheduler's choice, and a
	// round's p50 flipped between the two cases. Allocation is counted over
	// this phase alone, because how many batches a burst coalesces into, and
	// so how much it allocates, depends on goroutine timing.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	for _, pair := range wr.pairs(pairs) {
		for _, delta := range pair {
			r.attempted++
			t := time.Now()
			if _, err := d.s.cl.Apply(ctx, tenant, delta); err != nil {
				r.fail("apply %+v: %v", delta, err)
				continue
			}
			r.opMS = append(r.opMS, msSince(t))
			r.ops++
			read(r, readsPerWrite)
			r.busy += time.Since(t)
		}
	}
	runtime.ReadMemStats(&mem)
	r.alloc = mem.TotalAlloc - alloc0
	if burstLen == 0 {
		return r, nil
	}

	// Untimed, every burstEvery-th round: one burst through the coalescing
	// stream path with a reader beside it, then, with the writer idle and
	// every pair undone, the live tenant (compressed and concrete) and a
	// recovered crash image must all give the setup reference's answers.
	body, deltas := wr.burst(burstLen)
	var rd round
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		read(&rd, len(deltas)*readsPerWrite)
	}()
	r.attempted++
	t := time.Now()
	rep, err := d.s.cl.Replay(ctx, tenant, bytes.NewReader(body), 0, 0)
	if err != nil || rep.Deltas != len(deltas) || rep.Rejected != 0 {
		r.fail("replay of %d deltas: %+v, %v", len(deltas), rep, err)
	} else {
		r.diag["burst_ms"] = msSince(t)
		r.diag["burst_batches"] = float64(rep.Batches)
	}
	wg.Wait()
	r.merge(&rd)
	for _, q := range d.sample {
		ask(ctx, d.s.cl, r, q, false)
		ask(ctx, d.s.cl, r, q, true)
	}
	img, err := crashImage(d.o, d.dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(img)
	t = time.Now()
	recovered := serve(durableConfig(img, journal.SyncInterval))
	r.diag["recover_ms"] = msSince(t)
	for _, q := range d.sample {
		ask(ctx, recovered.cl, r, q, false)
	}
	recovered.stop()
	return r, nil
}

// merge adds the reader's answer checks to the round's.
func (r *round) merge(p *round) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.failures = append(r.failures, p.failures...)
}

func (d *churnDriver) close() {
	d.s.stop()
	os.RemoveAll(d.dir)
}

// crashImage copies a live, unsealed data directory: what kill -9 would
// leave. The tenant's background checkpointer may rename or truncate files
// under the copy, so a failed copy is retried.
func crashImage(o runOptions, dir string) (string, error) {
	var err error
	for try := 0; try < 3; try++ {
		var img string
		if img, err = scratchDir(o, "image-"); err != nil {
			return "", err
		}
		if err = os.CopyFS(img, os.DirFS(dir)); err == nil {
			return img, nil
		}
		os.RemoveAll(img)
	}
	return "", fmt.Errorf("copy crash image: %w", err)
}

// ---- recoveries (serve-churn round ends and the traced run) ----

// handlerReach asks a server without a listener, for recoveries that are
// timed up to their first answer.
func handlerReach(srv *server.Server, q query) (bonsai.ReachResult, int) {
	target := "/v1/tenants/" + tenant + "/reach?" + url.Values{"src": {q.src}, "dest": {q.dest}}.Encode()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	var got bonsai.ReachResult
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		return got, http.StatusInternalServerError
	}
	return got, rec.Code
}

// discard stops a server whose data directory is a throw-away copy. Deleting
// the tenant first spares the seal (a checkpoint, a relation store and their
// fsyncs) that Drain would write for nobody.
func discard(srv *server.Server) {
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/tenants/"+tenant, nil))
	srv.Drain()
}
