// The tenant registry: named engines with lifecycle management. Each tenant
// wraps one bonsai.Engine plus its admission state — a concurrent-query
// semaphore, a write semaphore and the one write lock — and the registry
// owns open (attach to the shared pool), idle eviction (a
// janitor closes tenants unused past the TTL) and close-on-drain (shutdown
// stops admitting, waits for in-flight work, then closes every engine).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bonsai"
	"bonsai/internal/journal"
)

// Errors the HTTP layer maps to status codes.
var (
	ErrTenantExists   = errors.New("server: tenant already exists")
	ErrTenantNotFound = errors.New("server: no such tenant")
	ErrDraining       = errors.New("server: draining")
	ErrTooManyTenants = errors.New("server: tenant limit reached")
	// ErrQueryBusy: the tenant's concurrent-query quota is exhausted (429).
	ErrQueryBusy = errors.New("server: tenant query quota exhausted")
	// ErrApplyQueueFull: the tenant's bounded apply queue is full (503).
	ErrApplyQueueFull = errors.New("server: apply queue full")
)

// tenant is one named engine with its admission state.
type tenant struct {
	name string
	eng  *bonsai.Engine

	// queries is the concurrent-query semaphore (admission control). writes
	// is its twin for /apply: ApplyQueueDepth waiting plus one executing.
	queries chan struct{}
	writes  chan struct{}
	// writeMu is the tenant's one write lock. A journal append or an
	// Engine.Apply* call happens only with it held — in write, replay and
	// the reconverge pass replay ends with — so journal order equals apply
	// order, and the checkpointer and close take it to read a settled
	// (config, appliedSeq) pair. Every holder that writes re-checks closed
	// after acquiring it: a closed tenant journals and applies nothing.
	writeMu sync.Mutex

	// lastUsed is a unix-nano timestamp of the last admitted request, for
	// idle eviction.
	lastUsed atomic.Int64

	// closed marks the tenant evicted/deleted; requests admitted after this
	// observe it and 404 rather than racing the engine teardown.
	closed atomic.Bool

	// Aggregates for /metrics: compression work (ns/class), coalescing, the
	// adopted and invalidated classes of every /apply and /replay report, and
	// the requests counted under this tenant's name.
	compressClasses atomic.Int64
	compressNs      atomic.Int64
	editsReceived   atomic.Int64
	editsApplied    atomic.Int64
	adopted         atomic.Int64
	invalidated     atomic.Int64
	ops             *opStats

	// Durability (nil jrnl = ephemeral tenant). appliedSeq is the newest
	// journal sequence known to be reflected in the live engine — a
	// conservative lower bound, safe because delta replay is
	// prefix-idempotent. recovery is set once at startup recovery and
	// read-only after. The ckpt* channels drive the background checkpointer.
	jrnl       *journal.Journal
	appliedSeq atomic.Uint64
	recovery   *RecoveryInfo
	ckptEvery  int
	ckptKick   chan struct{}
	ckptStop   chan struct{}
	ckptDone   chan struct{}
}

func (t *tenant) touch() { t.lastUsed.Store(time.Now().UnixNano()) }

// acquire takes one slot of an admission semaphore (queries or writes) or
// fails fast with full; the caller releases it with a receive.
func (t *tenant) acquire(sem chan struct{}, full error) error {
	select {
	case sem <- struct{}{}:
		if t.closed.Load() {
			<-sem
			return ErrTenantNotFound
		}
		t.touch()
		return nil
	default:
		return full
	}
}

// write is the /apply write path: validate, journal (fsynced under
// fsync=always), apply, advance appliedSeq (also past a delta Apply
// refuses), all under writeMu — a crash between append and apply is
// repaired by replaying the journal tail on recovery. It runs on the
// handler's goroutine; the caller holds a writes slot.
func (t *tenant) write(ctx context.Context, d bonsai.Delta) (*bonsai.ApplyReport, error) {
	defer t.maybeKickCheckpoint() // deferred first, so it runs after the unlock
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if t.closed.Load() {
		return nil, ErrTenantNotFound
	}
	// Pre-validate against the current config so known-bad deltas are
	// rejected without polluting the journal. Apply revalidates, but only
	// post-validation deltas reach the log.
	if t.jrnl != nil {
		if err := d.Validate(t.eng.Network()); err != nil {
			return nil, err
		}
	}
	seq, err := t.journalDelta(d)
	if err != nil {
		return nil, err
	}
	// Detached context: once admitted (and now journaled), a delta always
	// lands even if its client times out — dropping it silently would let
	// the client's view of the network diverge from the engine's (and from
	// the journal's).
	rep, err := t.eng.Apply(context.WithoutCancel(ctx), d)
	// A refused delta is settled too: a replay refuses the record again, so
	// a seal may skip it. Any other error leaves it to be applied.
	if seq > 0 && (err == nil || errors.Is(err, bonsai.ErrInvalidDelta)) {
		t.appliedSeq.Store(seq)
	}
	return rep, err
}

// maxDeltaBytes bounds one delta on the wire: an /apply body or one /replay
// line.
const maxDeltaBytes = 16 << 20

// deltaReader feeds a replay body to the JSON decoder and fails the read
// that would carry the delta being decoded past limit, so one line cannot
// buffer without bound.
type deltaReader struct {
	r     io.Reader
	n     int64 // bytes handed to the decoder so far
	limit int64 // stream offset the current delta may not extend past
}

func (dr *deltaReader) Read(p []byte) (int, error) {
	room := dr.limit - dr.n
	if room <= 0 {
		return 0, fmt.Errorf("one delta exceeds the %d-byte limit", maxDeltaBytes)
	}
	if int64(len(p)) > room {
		p = p[:room]
	}
	n, err := dr.r.Read(p)
	dr.n += int64(n)
	return n, err
}

// replay is the /replay write path: JSONL deltas from body through
// Engine.ApplyStream, under writeMu for the whole stream. This goroutine
// decodes and journals; the engine's stream runs on a second one and
// provides the backpressure: the body is read only as fast as rebuilds
// complete, so a fast client blocks on the socket rather than buffering
// server-side. interrupt must fail a body read pending on another goroutine;
// it is called when the stream ends without draining its input (engine
// closed by DELETE, request cancelled), because the decode loop may be parked
// in that read for as long as the client keeps the body open.
func (t *tenant) replay(ctx context.Context, body io.Reader, interrupt func(), opts ...bonsai.StreamApplyOption) (*bonsai.ApplyStreamReport, error) {
	defer t.maybeKickCheckpoint() // deferred first, so it runs after the unlock
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if t.closed.Load() {
		return nil, ErrTenantNotFound
	}
	var startSeq uint64
	if t.jrnl != nil {
		startSeq = t.jrnl.LastSeq()
	}

	// One slot keeps the decoder a delta ahead of the stream, which flushes a
	// batch when it polls for the next delta and finds none: without the
	// slot, on more than one CPU, the poll always beats the decoder it has
	// just woken and every batch is a single delta — no flap ever cancels.
	deltas := make(chan bonsai.Delta, 1)
	var rep *bonsai.ApplyStreamReport
	var aerr error
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		if rep, aerr = t.eng.ApplyStream(ctx, deltas, opts...); aerr != nil {
			interrupt()
		}
	}()

	in := &deltaReader{r: body}
	dec := json.NewDecoder(in)
	var derr error // why the loop stopped feeding, nil at a clean EOF
feed:
	for {
		var d bonsai.Delta
		in.limit = dec.InputOffset() + maxDeltaBytes
		if derr = dec.Decode(&d); derr != nil {
			if errors.Is(derr, io.EOF) {
				derr = nil
			}
			break
		}
		// Log-then-apply: the delta is journaled before the engine can see
		// it. A record the stream never gets to apply (client gone, engine
		// closed) is healed by the reconverge pass below — replay is
		// prefix-idempotent, so over-journaling is safe, silently dropping an
		// applied-but-unjournaled delta would not be.
		if _, derr = t.journalDelta(d); derr != nil {
			break
		}
		select {
		case deltas <- d:
			t.touch() // a replay outlasting IdleTTL is use, not idleness
		case <-streamDone:
			break feed
		}
	}
	close(deltas)
	<-streamDone

	if t.jrnl != nil {
		if aerr == nil {
			// The stream consumed deltas to its close, so every journaled
			// delta was delivered and flushed.
			t.appliedSeq.Store(t.jrnl.LastSeq())
		} else {
			// Aborted mid-stream: re-apply the journal tail onto the live
			// engine so journaled-but-unapplied records land after all.
			t.reconverge(ctx, startSeq)
		}
	}
	switch {
	case aerr != nil:
		return rep, aerr
	case derr == nil, errors.Is(derr, errJournal):
		return rep, derr // a durability failure is the server's, not a client 400
	default:
		return rep, fmt.Errorf("%w: decoding delta stream: %v", errBadRequest, derr)
	}
}

// busy reports in-flight work: a query slot, a write slot or the write lock
// is held. The janitor skips busy tenants so a stream longer than IdleTTL is
// never evicted mid-flight.
func (t *tenant) busy() bool {
	if len(t.queries) > 0 || len(t.writes) > 0 || !t.writeMu.TryLock() {
		return true
	}
	t.writeMu.Unlock()
	return false
}

// registry is the named-tenant table.
type registry struct {
	cfg  Config
	pool *bonsai.SharedPool

	mu       sync.Mutex
	tenants  map[string]*tenant
	draining bool

	// inflight counts admitted requests across all tenants; drain waits on
	// it after refusing new admissions.
	inflight sync.WaitGroup
}

func newRegistry(cfg Config, pool *bonsai.SharedPool) *registry {
	return &registry{cfg: cfg, pool: pool, tenants: make(map[string]*tenant)}
}

// buildTenant constructs a tenant's engine and admission state without
// registering it — shared by open (fresh tenants) and startup recovery.
func (r *registry) buildTenant(name string, net *bonsai.Network) (*tenant, error) {
	var opts []bonsai.Option
	if r.pool != nil {
		opts = append(opts, bonsai.WithSharedPool(r.pool, r.cfg.TenantFloor, name))
	}
	eng, err := bonsai.Open(net, opts...)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name:      name,
		eng:       eng,
		queries:   make(chan struct{}, max(1, r.cfg.MaxQueriesPerTenant)),
		writes:    make(chan struct{}, max(1, r.cfg.ApplyQueueDepth)+1),
		ckptEvery: r.checkpointEvery(),
		ops:       newOpStats(),
	}
	t.touch()
	return t, nil
}

// open creates a tenant over net, attaching its engine to the shared pool
// and (when a data dir is configured) starting its journal with a base
// checkpoint of the opening config.
func (r *registry) open(name string, net *bonsai.Network) (*tenant, error) {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, ErrDraining
	}
	if _, ok := r.tenants[name]; ok {
		r.mu.Unlock()
		return nil, ErrTenantExists
	}
	if r.cfg.MaxTenants > 0 && len(r.tenants) >= r.cfg.MaxTenants {
		r.mu.Unlock()
		return nil, ErrTooManyTenants
	}
	// Reserve the name before the (slow) engine build so concurrent opens
	// of the same name fail fast instead of racing.
	r.tenants[name] = nil
	r.mu.Unlock()

	fail := func(err error) (*tenant, error) {
		r.mu.Lock()
		delete(r.tenants, name)
		r.mu.Unlock()
		return nil, err
	}
	t, err := r.buildTenant(name, net)
	if err != nil {
		return fail(err)
	}
	if r.persistent() {
		// Durability was asked for: an open that can't journal must fail
		// rather than silently serve an ephemeral tenant.
		if err := r.initPersistence(t); err != nil {
			t.eng.Close()
			return fail(err)
		}
		t.startCheckpointer()
	}
	r.mu.Lock()
	r.tenants[name] = t
	r.mu.Unlock()
	return t, nil
}

// get looks a tenant up; opening-in-progress (nil) reads as not found.
func (r *registry) get(name string) (*tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok || t == nil {
		return nil, ErrTenantNotFound
	}
	return t, nil
}

// names lists tenants in sorted order.
func (r *registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.tenants))
	for n, t := range r.tenants {
		if t != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// close removes and closes one tenant. deleteData distinguishes an explicit
// DELETE (the tenant and its history are gone for good) from eviction and
// drain (the engine is released but the sealed journal stays on disk, so the
// next daemon start resurrects the tenant). Either way the write lock is
// taken after closed is set, so whoever held it has left and whoever gets it
// next writes nothing. In-flight queries are not waited for:
// bonsai.Engine.Close lets them finish against their snapshot.
func (r *registry) close(name string, deleteData bool) error {
	r.mu.Lock()
	t, ok := r.tenants[name]
	if !ok || t == nil {
		r.mu.Unlock()
		return ErrTenantNotFound
	}
	delete(r.tenants, name)
	r.mu.Unlock()
	t.closed.Store(true)
	if deleteData {
		// Closing the engine first ends a running ApplyStream with ErrClosed,
		// so the lock below waits for a replay to leave, never for its client
		// to stop streaming.
		t.eng.Close()
	}
	if t.ckptStop != nil {
		close(t.ckptStop)
		<-t.ckptDone
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if t.jrnl != nil {
		if deleteData {
			t.jrnl.Close()
			os.RemoveAll(r.tenantDir(name))
		} else {
			// Seal while the engine is still open: the final checkpoint
			// renders the live config.
			t.sealJournal()
		}
	}
	return t.eng.Close()
}

// idleNames lists tenants idle past ttl; the caller closes them. Tenants
// with in-flight work are never idle, however stale their lastUsed stamp —
// closing one would block the janitor behind its write lock and tear the
// engine down under live requests.
func (r *registry) idleNames(ttl time.Duration) []string {
	if ttl <= 0 {
		return nil
	}
	cut := time.Now().Add(-ttl).UnixNano()
	var idle []string
	r.mu.Lock()
	for n, t := range r.tenants {
		if t != nil && t.lastUsed.Load() < cut && !t.busy() {
			idle = append(idle, n)
		}
	}
	r.mu.Unlock()
	return idle
}

// drain stops admitting (every subsequent admission fails with
// ErrDraining), waits for in-flight requests, then closes every tenant.
func (r *registry) drain() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	r.inflight.Wait()
	for _, n := range r.names() {
		// Keep data: a drained daemon restarts into the same tenants.
		r.close(n, false)
	}
}

// admit registers one in-flight request; callers pair it with done().
// It fails during drain so the inflight count is strictly decreasing then.
func (r *registry) admit() (done func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil, ErrDraining
	}
	r.inflight.Add(1)
	return func() { r.inflight.Done() }, nil
}

// TenantInfo is the wire shape of one tenant listing.
type TenantInfo struct {
	Name    string             `json:"name"`
	Network bonsai.NetworkInfo `json:"network"`
	Cache   bonsai.CacheStats  `json:"cache"`
}

func (r *registry) info(t *tenant) TenantInfo {
	return TenantInfo{Name: t.name, Network: t.eng.NetworkInfo(), Cache: t.eng.Stats()}
}
