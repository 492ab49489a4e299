package bonsai

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/bdd"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/ec"
	"bonsai/internal/faultinject"
	"bonsai/internal/policy"
	"bonsai/internal/srp"
	"bonsai/internal/verify"
)

// ErrClosed is returned by engine operations after Close.
var ErrClosed = errors.New("bonsai: engine is closed")

// Engine is a long-lived compression and verification session over one
// network. It is safe for concurrent use: queries fan out over a worker
// pool, compiled-policy state lives in a pool of single-owner BDD
// compilers, and Apply swaps the network atomically while in-flight queries
// finish against the pre-delta state.
type Engine struct {
	opts options

	// state is the current immutable snapshot; Apply builds a successor
	// off-line and swaps the pointer.
	state atomic.Pointer[engineState]
	// applyMu serialises Apply calls (queries never take it).
	applyMu sync.Mutex
	// pool holds idle policy compilers. A compiler is owned by exactly one
	// goroutine between acquire and release; compilers whose community
	// universe no longer matches the current network are dropped on
	// acquire.
	pool chan *pooledCompiler
	// closed is set by Close; operations observe it and return ErrClosed.
	closed atomic.Bool
	// closeCh is closed by Close so blocking operations (ApplyStream's
	// ingestion pump) observe shutdown without polling.
	closeCh chan struct{}
	// streamStats is the live ApplyStats snapshot of the most recent
	// ApplyStream (nil before the first stream).
	streamStats atomic.Pointer[ApplyStats]

	// BDD-layer aggregates, folded from per-compiler counters at release
	// and retire time (the owning goroutine folds, so the managers' hot
	// paths stay free of atomics). Nodes/slots are the live contribution of
	// every engine-created compiler as of its last fold; hit/miss/overwrite
	// counters are cumulative over the engine's lifetime.
	bddNodes      atomic.Int64
	bddSlots      atomic.Int64
	bddManagers   atomic.Int64
	bddHits       atomic.Uint64
	bddMisses     atomic.Uint64
	bddOverwrites atomic.Uint64

	// Reach-memo counters, cumulative over the engine's lifetime: a miss is
	// a query that solved its class, a hit one that found it solved (or
	// joined the solve in flight).
	reachHits   atomic.Int64
	reachMisses atomic.Int64
}

// engineState is one network snapshot: configuration and builder are
// immutable, the memo only ever gains answers that are functions of them.
type engineState struct {
	cfg      *config.Network
	b        *build.Builder
	universe string // community-universe key a compiler must match
	memo     reachMemo
}

// reachMemo remembers, per class of one snapshot, which routers reach it:
// classes do not interact (paper §5.1), so one solve answers every source.
// The memo is born empty with its snapshot and dies with it; nothing is
// carried across Apply, evicted, budgeted, persisted or configurable. An
// answer is therefore a function of the snapshot's configuration alone,
// never of which queries ran before.
type reachMemo struct {
	mu      sync.Mutex
	flights map[reachKey]*reachFlight
}

// reachKey names one answer: a class, solved compressed or concretely.
type reachKey struct {
	class      netip.Prefix
	compressed bool
}

// reachFlight is one solve of a class and, once done is closed, its answer.
// A nil reach after done means the solve failed; the flight has then already
// left the memo, so errors and cancellations are never remembered.
type reachFlight struct {
	done  chan struct{}
	reach verify.ReachSet
}

// join returns the flight for key, creating it when there is none; the
// creator is its leader and must solve.
func (m *reachMemo) join(key reachKey) (f *reachFlight, leader bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.flights[key]; f != nil {
		return f, false
	}
	if m.flights == nil {
		m.flights = make(map[reachKey]*reachFlight)
	}
	f = &reachFlight{done: make(chan struct{})}
	m.flights[key] = f
	return f, true
}

func (m *reachMemo) forget(key reachKey) {
	m.mu.Lock()
	delete(m.flights, key)
	m.mu.Unlock()
}

type pooledCompiler struct {
	comp     *policy.Compiler
	universe string
	last     bdd.Stats // counters as of the last fold into engine aggregates
}

// Open validates net and builds an Engine over it. The network is cloned,
// so the caller may keep mutating its copy; use Apply to change the
// engine's.
func Open(net *Network, opts ...Option) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("bonsai: nil network")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := net.Clone()
	b, err := build.New(cfg)
	if err != nil {
		return nil, err
	}
	if o.memBudget > 0 {
		b.SetAbstractionBudget(o.memBudget)
	}
	e := &Engine{opts: o, closeCh: make(chan struct{})}
	e.pool = make(chan *pooledCompiler, o.workerCount()+2)
	e.state.Store(&engineState{cfg: cfg, b: b, universe: universeKey(cfg)})
	if o.pool != nil {
		o.pool.Attach(b, e.poolLabel(), o.poolFloor)
	}
	return e, nil
}

// poolLabel names this engine in shared-pool stats.
func (e *Engine) poolLabel() string {
	if e.opts.poolLabel != "" {
		return e.opts.poolLabel
	}
	if name := e.state.Load().cfg.Name; name != "" {
		return name
	}
	return "engine"
}

// Close shuts the engine down: the idle compiler pool is drained and every
// pooled compiler's BDD unique table and operation caches are freed, so a
// process cycling through many engines reclaims per-engine memory
// deterministically instead of waiting for the GC to notice multi-megabyte
// managers. Operations started after Close return ErrClosed; operations
// already in flight finish normally (their checked-out compilers are freed
// when released). Close is idempotent and safe to call concurrently.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.closeCh)
	e.drainPool()
	if e.opts.pool != nil {
		// Serialise with any in-flight Apply/ApplyStream (both abort promptly
		// on closeCh) so the builder detached is the final snapshot's.
		e.applyMu.Lock()
		e.opts.pool.Detach(e.state.Load().b)
		e.applyMu.Unlock()
	}
	return nil
}

// OpenFile parses the network file at path and opens an Engine over it.
func OpenFile(path string, opts ...Option) (*Engine, error) {
	net, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	return Open(net, opts...)
}

// universeKey renders the matched-community universe; compilers compiled
// over a different universe (different BDD variable layout) must not serve
// the network.
func universeKey(cfg *config.Network) string {
	return fmt.Sprint(cfg.MatchedCommunities())
}

// Network returns the engine's current configuration snapshot. The result
// is shared with the engine and must be treated as read-only; Clone it
// before editing.
func (e *Engine) Network() *Network { return e.state.Load().cfg }

// Stats snapshots the cross-class abstraction cache and the reach memo's
// counters.
func (e *Engine) Stats() CacheStats {
	s := cacheStats(e.state.Load().b)
	s.ReachMemoHits, s.ReachMemoMisses = e.reachHits.Load(), e.reachMisses.Load()
	return s
}

// Classes lists the destination equivalence classes of the current network
// as prefix strings, in their deterministic order.
func (e *Engine) Classes() []string {
	st := e.state.Load()
	classes := st.b.Classes()
	out := make([]string, len(classes))
	for i, cls := range classes {
		out[i] = cls.Prefix.String()
	}
	return out
}

func cacheStats(b *build.Builder) CacheStats {
	s := b.AbstractionCacheStats()
	return CacheStats{
		Fresh:          s.Fresh,
		Transported:    s.Transported,
		Served:         s.Served,
		Adopted:        s.Adopted,
		Misses:         s.Misses,
		Evictions:      s.Evictions,
		LiveBytes:      s.LiveBytes,
		PeakBytes:      s.PeakBytes,
		BudgetBytes:    s.BudgetBytes,
		DuplicateFresh: s.DuplicateFresh,
	}
}

// acquire checks a compiler out of the pool for st, discarding pooled
// compilers whose universe is stale and creating a fresh one when the pool
// runs dry.
func (e *Engine) acquire(st *engineState) *pooledCompiler {
	for {
		select {
		case pc := <-e.pool:
			if pc.universe != st.universe {
				e.retire(pc) // stale variable layout; free its tables
				continue
			}
			// The compiler's relation cache rides on the compiler itself
			// (policy.Compiler.Cache), so it follows the compiler across
			// configuration updates with no hand-off.
			return pc
		default:
			e.bddManagers.Add(1)
			return &pooledCompiler{
				comp:     st.b.NewCompiler(true),
				universe: st.universe,
			}
		}
	}
}

// foldBDD folds the compiler's counter deltas since the last fold into the
// engine aggregates. Called only by the goroutine that owns pc.
func (e *Engine) foldBDD(pc *pooledCompiler) {
	s := pc.comp.M.Stats()
	e.bddNodes.Add(int64(s.Nodes - pc.last.Nodes))
	e.bddSlots.Add(int64(s.UniqueSlots - pc.last.UniqueSlots))
	e.bddHits.Add(s.CacheHits - pc.last.CacheHits)
	e.bddMisses.Add(s.CacheMisses - pc.last.CacheMisses)
	e.bddOverwrites.Add(s.CacheOverwrites - pc.last.CacheOverwrites)
	pc.last = s
}

// retire folds a compiler's final counters, removes its live contribution
// from the aggregates, and frees its BDD tables.
func (e *Engine) retire(pc *pooledCompiler) {
	e.foldBDD(pc)
	e.bddNodes.Add(-int64(pc.last.Nodes))
	e.bddSlots.Add(-int64(pc.last.UniqueSlots))
	e.bddManagers.Add(-1)
	pc.comp.Close()
}

// release returns a compiler to the pool, retiring it when the pool is full
// or the engine has been closed (the query that held it across Close
// finishes normally; the compiler does not outlive it).
func (e *Engine) release(pc *pooledCompiler) {
	e.foldBDD(pc)
	if e.closed.Load() {
		e.retire(pc)
		return
	}
	select {
	case e.pool <- pc:
		if e.closed.Load() {
			// Close ran between the check above and the send, so its drain
			// may have missed this compiler; sweep the pool so shutdown
			// stays deterministic.
			e.drainPool()
		}
	default:
		e.retire(pc)
	}
}

// drainPool empties the idle pool, freeing each compiler's BDD tables.
func (e *Engine) drainPool() {
	for {
		select {
		case pc := <-e.pool:
			e.retire(pc)
		default:
			return
		}
	}
}

// BDDStats snapshots the engine's BDD-layer aggregates: the live node and
// unique-table footprint of its compiler pool and the cumulative op-cache
// behaviour. Counters for a checked-out compiler fold in when it is
// released, so long-running queries surface on completion.
func (e *Engine) BDDStats() BDDStats {
	s := BDDStats{
		NodesLive:       e.bddNodes.Load(),
		UniqueSlots:     e.bddSlots.Load(),
		Managers:        e.bddManagers.Load(),
		CacheHits:       e.bddHits.Load(),
		CacheMisses:     e.bddMisses.Load(),
		CacheOverwrites: e.bddOverwrites.Load(),
	}
	if s.UniqueSlots > 0 {
		s.LoadFactor = float64(s.NodesLive) / float64(s.UniqueSlots)
	}
	return s
}

// SaveRelationStore writes every completed cached abstraction of the current
// network to one CRC-framed file at path, atomically (temp + fsync + rename;
// a crash mid-save leaves the previous file intact; one save per path at a
// time). A later Open of the same network followed by LoadRelationStore
// restores them, skipping refinement for every saved class.
func (e *Engine) SaveRelationStore(path string) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.state.Load().b.SaveRelationStoreFile(path, nil)
}

// LoadRelationStore restores a relation store saved by SaveRelationStore
// into the current network's caches, returning how many class abstractions
// were installed. The file loads whole or not at all: a truncated,
// bit-flipped, or wrong-network file yields an error and leaves the engine
// cold but fully consistent.
func (e *Engine) LoadRelationStore(path string) (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	return e.state.Load().b.LoadRelationStoreFile(path, nil)
}

// Compress compresses the selected destination classes, sharing cached
// abstractions across identical and symmetric classes. It is the batch form
// of CompressStream: the same streaming pipeline runs underneath, with the
// per-class results drained into the aggregate report.
func (e *Engine) Compress(ctx context.Context, sel ClassSelector) (*CompressReport, error) {
	s, err := e.CompressStream(ctx, sel)
	if err != nil {
		return nil, err
	}
	for range s.Results() {
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return s.Report(), nil
}

func (e *Engine) networkInfo(st *engineState) NetworkInfo {
	return NetworkInfo{
		Name:       st.cfg.Name,
		Routers:    st.b.G.NumNodes(),
		Links:      st.b.G.NumLinks(),
		Interfaces: st.cfg.NumInterfaces(),
		Classes:    len(st.b.Classes()),
	}
}

// AbstractNetwork compresses the class owning destPrefix and writes the
// abstraction back out as a (smaller) configuration.
func (e *Engine) AbstractNetwork(ctx context.Context, destPrefix string) (*Network, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	st := e.state.Load()
	cls, err := st.b.ClassFor(destPrefix)
	if err != nil {
		return nil, err
	}
	pc := e.acquire(st)
	defer e.release(pc)
	abs, err := st.b.Compress(ctx, pc.comp, cls)
	if err != nil {
		return nil, err
	}
	return st.b.AbstractConfig(cls, abs)
}

// Verify runs an all-pairs reachability verification and returns its
// structured report.
func (e *Engine) Verify(ctx context.Context, req VerifyRequest) (*Report, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	st := e.state.Load()
	workers := req.Workers
	if workers <= 0 {
		workers = e.opts.workerCount()
	}
	opts := verify.Options{
		MaxClasses:           req.MaxClasses,
		Workers:              workers,
		PerPairCertification: req.PerPair,
	}
	var res *verify.Result
	var err error
	if req.Concrete {
		res, err = verify.AllPairsConcrete(ctx, st.b, opts)
	} else {
		// The pool runs no more workers than classes, so no more compilers
		// are checked out either.
		comps := make([]*pooledCompiler, opts.Fanout(st.b))
		opts.Compilers = make([]*policy.Compiler, len(comps))
		for i := range comps {
			comps[i] = e.acquire(st)
			opts.Compilers[i] = comps[i].comp
		}
		defer func() {
			for _, pc := range comps {
				e.release(pc)
			}
		}()
		res, err = verify.AllPairsBonsai(ctx, st.b, opts)
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		Mode:                 res.Mode,
		Classes:              res.Classes,
		Pairs:                res.Pairs,
		ReachablePairs:       res.ReachablePairs,
		AbstractNodeSum:      res.AbstractNodeSum,
		DistinctAbstractions: res.DistinctAbstractions,
		CompressTime:         res.Compress,
		Total:                res.Total,
		Cache:                cacheStats(st.b),
	}, nil
}

// Reach answers one reachability query on the compressed network. The first
// query of a class in a snapshot solves it (serving the abstraction from the
// warm cache when possible); every later one, from any source, is a class
// lookup and a bit test.
func (e *Engine) Reach(ctx context.Context, src, destPrefix string) (*ReachResult, error) {
	return e.reach(ctx, src, destPrefix, true)
}

// ReachConcrete answers one reachability query by simulating the concrete
// network, bypassing compression entirely.
func (e *Engine) ReachConcrete(ctx context.Context, src, destPrefix string) (*ReachResult, error) {
	return e.reach(ctx, src, destPrefix, false)
}

func (e *Engine) reach(ctx context.Context, src, destPrefix string, compressed bool) (*ReachResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := e.state.Load()
	cls, u, err := verify.ResolveQuery(st.b, src, destPrefix)
	if err != nil {
		return nil, err
	}
	reach, err := e.classReach(ctx, st, cls, compressed)
	if err != nil {
		return nil, err
	}
	return &ReachResult{Reachable: reach.Has(u), Compressed: compressed, Duration: time.Since(start)}, nil
}

// classReach returns the snapshot's answer for cls, solving it at most once
// however many queries ask at the same time: the first becomes the flight's
// leader, the rest wait for it. A waiter whose leader failed starts over
// rather than inherit a foreign error or cancellation.
func (e *Engine) classReach(ctx context.Context, st *engineState, cls ec.Class, compressed bool) (verify.ReachSet, error) {
	key := reachKey{class: cls.Prefix, compressed: compressed}
	for {
		f, leader := st.memo.join(key)
		if leader {
			e.reachMisses.Add(1)
			return e.leadReach(ctx, st, cls, key, f)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.reach != nil {
			e.reachHits.Add(1)
			return f.reach, nil
		}
	}
}

// leadReach solves cls for flight f and publishes the outcome. A failed
// solve (error, cancellation or panic) leaves the memo before its waiters
// wake, so the next query solves afresh.
func (e *Engine) leadReach(ctx context.Context, st *engineState, cls ec.Class, key reachKey, f *reachFlight) (reach verify.ReachSet, err error) {
	defer func() {
		if reach == nil {
			st.memo.forget(key)
		}
		f.reach = reach
		close(f.done)
	}()
	var comp *policy.Compiler
	if key.compressed {
		pc := e.acquire(st)
		defer e.release(pc)
		comp = pc.comp
	}
	return verify.ClassReach(ctx, st.b, comp, cls, key.compressed)
}

// Roles counts the behavioral router roles of the network (paper §8).
func (e *Engine) Roles(ctx context.Context, req RolesRequest) (*RolesReport, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := e.state.Load()
	return &RolesReport{
		Roles:   st.b.RoleCount(!req.NoErase, req.NoStatics),
		Routers: st.b.G.NumNodes(),
	}, nil
}

// Routes simulates the concrete control plane for the class owning
// destPrefix and returns every router's converged state.
func (e *Engine) Routes(ctx context.Context, destPrefix string) (*RoutesReport, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := e.state.Load()
	cls, err := st.b.ClassFor(destPrefix)
	if err != nil {
		return nil, err
	}
	inst, err := st.b.Instance(cls)
	if err != nil {
		return nil, err
	}
	sol, err := srp.Solve(inst)
	if err != nil {
		return nil, err
	}
	rep := &RoutesReport{Dest: cls.Prefix.String()}
	for _, u := range st.b.G.Nodes() {
		entry := RouteEntry{
			Router: st.b.G.Name(u),
			Label:  fmt.Sprint(sol.Label[u]),
		}
		for _, v := range sol.Fwd[u] {
			entry.NextHops = append(entry.NextHops, st.b.G.Name(v))
		}
		rep.Routes = append(rep.Routes, entry)
	}
	return rep, nil
}

// Apply atomically applies a configuration delta. It rebuilds the
// network's topology tables, then carries every cached abstraction that is
// still valid across the change: classes the delta provably cannot touch
// (per the edge→class liveness index) are adopted directly, the rest are
// re-validated with an O(E) stability sweep, and only the classes the
// delta actually affected are invalidated — they recompress lazily on
// their next query. Queries running concurrently with Apply finish against
// the pre-delta snapshot; queries started after Apply returns see the
// post-delta network and the surviving warm cache.
func (e *Engine) Apply(ctx context.Context, d Delta) (*ApplyReport, error) {
	if d.empty() {
		return nil, fmt.Errorf("bonsai: empty delta")
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	return e.applyDelta(ctx, d)
}

// oversizedDelta reports whether the delta's blast radius makes the
// per-class adoption sweep a bad bet: when a burst flaps a quarter of the
// links or edits a quarter of the routers, almost every class fails its
// stability checks anyway, so the sweep's O(classes × degree) cost buys
// nothing. The engine then degrades gracefully — cold successor snapshot,
// every class recompresses lazily on its next query — instead of erroring
// or grinding through a doomed sweep.
func oversizedDelta(cfg *config.Network, d *Delta) bool {
	links := len(d.LinkDown) + len(d.LinkUp)
	routers := len(d.touchedRouters())
	return links*4 > len(cfg.Links) || routers*4 > len(cfg.Routers)
}

// applyDelta is the shared core of Apply and ApplyStream: validate, fork,
// rebuild, adopt (or degrade), swap. The caller holds applyMu. Any panic in
// the rebuild or adoption machinery is contained here: the snapshot is not
// swapped, the old state keeps serving queries, and the panic surfaces as
// an error with the stack attached.
func (e *Engine) applyDelta(ctx context.Context, d Delta) (rep *ApplyReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = fmt.Errorf("bonsai: apply panicked (snapshot unchanged): %v\n%s", r, debug.Stack())
		}
	}()
	start := time.Now()
	st := e.state.Load()
	// Validate against the live config before paying for the fork: a delta
	// that passes applies completely, one that fails touches nothing. The
	// successor shares every router the delta does not edit with the
	// snapshot still being served (Delta.apply).
	if err := d.Validate(st.cfg); err != nil {
		return nil, err
	}
	cfg2 := st.cfg.Fork()
	if err := d.apply(cfg2); err != nil {
		return nil, err
	}
	b2, err := build.New(cfg2)
	if err != nil {
		return nil, fmt.Errorf("bonsai: delta produces invalid network: %w", err)
	}
	if e.opts.memBudget > 0 {
		b2.SetAbstractionBudget(e.opts.memBudget)
	}
	// The compiled-policy pool stays warm across the swap on its own:
	// relation caches ride on the compilers (policy.Compiler.Cache), and
	// entries are keyed by policy-namespace pointer, which unchanged routers
	// share with the old config.
	st2 := &engineState{cfg: cfg2, b: b2, universe: universeKey(cfg2)}

	var stats build.AdoptStats
	degraded := oversizedDelta(st.cfg, &d)
	if degraded {
		// Cold successor: no adoption sweep, every class recompresses
		// lazily. Count the class-set diff so the report stays truthful.
		newSet := make(map[netip.Prefix]bool, len(b2.Classes()))
		for _, cls := range b2.Classes() {
			newSet[cls.Prefix] = true
		}
		stats.NewClasses = len(b2.Classes())
		for _, cls := range st.b.Classes() {
			if !newSet[cls.Prefix] {
				stats.Removed++
			}
		}
	} else {
		pc := e.acquire(st2)
		defer e.release(pc)
		stats, err = b2.AdoptFrom(ctx, pc.comp, st.b, build.AdoptDelta{
			TouchedRouters: d.touchedRouters(),
		})
		if err != nil {
			return nil, err // state not swapped; the old snapshot stays live
		}
	}
	if faultinject.Active() {
		faultinject.Fire(faultinject.ApplySwap, "")
	}
	e.state.Store(st2)
	if e.opts.pool != nil {
		// Pool membership follows the snapshot: the successor is attached
		// only now (so a failed apply never perturbs pool accounting) and
		// the predecessor's bytes are released immediately rather than when
		// the GC notices the old builder.
		e.opts.pool.Detach(st.b)
		e.opts.pool.Attach(st2.b, e.poolLabel(), e.opts.poolFloor)
	}
	return &ApplyReport{
		Classes:             len(b2.Classes()),
		Adopted:             stats.Adopted,
		Unchanged:           stats.Unchanged,
		Reassembled:         stats.Reassembled,
		Invalidated:         stats.Invalidated,
		InvalidatedPrefixes: stats.InvalidatedPrefixes,
		NewClasses:          stats.NewClasses,
		RemovedClasses:      stats.Removed,
		Degraded:            degraded,
		Duration:            time.Since(start),
	}, nil
}
