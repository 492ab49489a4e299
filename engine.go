package bonsai

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/bdd"
	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/faultinject"
	"bonsai/internal/policy"
	"bonsai/internal/verify"
)

// ErrClosed is returned by engine operations after Close.
var ErrClosed = errors.New("bonsai: engine is closed")

// ErrInvalidDelta is wrapped by the Apply errors the delta itself causes: it
// names what the network lacks, or its result does not validate. The engine
// keeps serving the snapshot before it. ApplyStream counts such a delta
// rejected and goes on.
var ErrInvalidDelta = errors.New("bonsai: invalid delta")

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
	// goroutine between acquire and release; compilers the current
	// snapshot's Builder no longer accepts (build.Builder.Serves) are
	// dropped on acquire.
	pool chan *pooledCompiler
	// closed is set by Close; operations observe it and return ErrClosed.
	closed atomic.Bool
	// closeCh is closed by Close so blocking operations (ApplyStream's
	// read loop) observe shutdown without polling.
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

	// Memo counters, cumulative over the engine's lifetime and shared by
	// every snapshot's memo: a miss solved a fingerprint group (or a class
	// concretely), a hit found it solved or joined its solve.
	memoCounts verify.MemoCounts
}

// engineState is one network snapshot: configuration and builder are
// immutable, and the memo (verify.Memo) only ever gains answers that are
// functions of them. It is born with the snapshot and dies with it; nothing
// is carried across Apply.
type engineState struct {
	cfg  *config.Network
	b    *build.Builder
	memo *verify.Memo
}

// newState makes the snapshot of cfg and b, with a memo that compresses on
// the engine's pooled compilers.
func (e *Engine) newState(cfg *config.Network, b *build.Builder) *engineState {
	st := &engineState{cfg: cfg, b: b}
	st.memo = verify.NewMemo(b, &e.memoCounts, func() (*policy.Compiler, func()) {
		pc := e.acquire(st)
		return pc.comp, func() { e.release(pc) }
	})
	return st
}

type pooledCompiler struct {
	comp *policy.Compiler
	last bdd.Stats // counters as of the last fold into engine aggregates
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
	e.state.Store(e.newState(cfg, b))
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

// Network returns the engine's current configuration snapshot. The result
// is shared with the engine and must be treated as read-only; Clone it
// before editing.
func (e *Engine) Network() *Network { return e.state.Load().cfg }

// Stats snapshots the cross-class abstraction cache and the reach memo's
// counters.
func (e *Engine) Stats() CacheStats {
	return CacheStats{
		StoreStats:      e.state.Load().b.AbstractionCacheStats(),
		ReachMemoHits:   e.memoCounts.Hits.Load(),
		ReachMemoMisses: e.memoCounts.Misses.Load(),
	}
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

// acquire checks a compiler out of the pool for st, discarding pooled
// compilers st's Builder does not accept and creating a fresh one when the
// pool runs dry.
func (e *Engine) acquire(st *engineState) *pooledCompiler {
	for {
		select {
		case pc := <-e.pool:
			if !st.b.Serves(pc.comp) {
				e.retire(pc) // another universe; free its tables
				continue
			}
			// The compiler's relation cache rides on the compiler itself
			// (policy.Compiler.Cache), so it follows the compiler across
			// configuration updates with no hand-off.
			return pc
		default:
			e.bddManagers.Add(1)
			return &pooledCompiler{comp: st.b.NewCompiler(true)}
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

// NetworkInfo summarises the current network. Links counts live links only,
// as Interfaces does.
func (e *Engine) NetworkInfo() NetworkInfo { return e.networkInfo(e.state.Load()) }

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
// structured report. Compressed, it is a fold over the snapshot's memo, so
// Reach, Verify and Routes together solve each fingerprint group at most
// once per snapshot; concretely, every class is solved afresh and nothing
// is remembered.
func (e *Engine) Verify(ctx context.Context, req VerifyRequest) (*Report, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	st := e.state.Load()
	opts := verify.Options{
		MaxClasses:           req.MaxClasses,
		Workers:              e.opts.workerCount(),
		PerPairCertification: req.PerPair,
	}
	var res *verify.Result
	var err error
	if req.Concrete {
		res, err = verify.AllPairsConcrete(ctx, st.b, opts)
	} else {
		res, err = st.memo.AllPairs(ctx, opts)
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		VerifyAnswer: res.Answer,
		CompressTime: res.Compress,
		Total:        res.Total,
		Cache:        CacheStats{StoreStats: st.b.AbstractionCacheStats()},
	}, nil
}

// Reach answers one reachability query on the compressed network. The first
// lookup of a class's fingerprint group in a snapshot (by any Reach or
// Verify) solves it, serving the abstraction from the warm cache when
// possible; every later query of the group, from any source, is a class
// lookup and an index into the group's analysis.
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
	reach, err := st.memo.Answer(ctx, cls, compressed)
	if err != nil {
		return nil, err
	}
	return &ReachResult{ReachAnswer: reachAnswer(reach, u), Compressed: compressed, Duration: time.Since(start)}, nil
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

// Routes returns every router's converged state for the class owning
// destPrefix on the concrete network, in the first solution the class
// counts (verify.Solutions), with the class's verdict: several solutions say
// "multiple", and with none there are no routes. It reads the class's
// concrete analysis from the reach memo, so ReachConcrete and Routes solve a
// class once per snapshot between them.
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
	ans, err := st.memo.Answer(ctx, cls, false)
	if err != nil {
		return nil, err
	}
	rep := &RoutesReport{Dest: cls.Prefix.String(), Stable: ans.Stable}
	sol := ans.Solution
	if sol == nil {
		return rep, nil
	}
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

// Apply atomically applies a configuration delta: a batch of one (see
// ApplyStream). It validates the delta against the live configuration,
// makes its edits on a copy-on-write fork, checks the routers whose policy
// namespace changed, and builds the successor from that fork
// (build.Builder.Successor): the node table is shared, the community
// universes and spaces are shared when no policy namespace changed, and the
// edge index and per-edge tables are spliced from the predecessor's through
// one edge diff — the stretches of edges both hold are copied, and only the
// edges the delta added or that touch an edited router are looked up by
// name; the result equals build.New of the fork. The same diff tells
// adoption which edges went and came. A delta naming what the network
// lacks, or leaving an invalid network, fails with ErrInvalidDelta and
// changes nothing; one that changes nothing (a link taken down that was
// down) swaps nothing. Apply then carries every cached abstraction that is
// still valid across the change (build.AdoptFrom): per cached class, every
// edge carrying a policy object the delta edited must be dead for the class
// before and after, and every live edge the delta removed or added must
// have a same-labelled edge between the same two abstract groups that it
// leaves or finds in place. A class that passes keeps its abstraction, and
// its class signature too when the policy tables are unchanged and no
// static applies to it; the class index is carried whole when no router's
// originated prefixes changed. Only the classes the delta actually affected
// are invalidated — they recompress lazily on their next query — and a
// delta changing a quarter of the links or routers skips the sweep and
// leaves every class cold. Queries running concurrently with Apply finish
// against the pre-delta snapshot; queries started after Apply returns see
// the post-delta network and the surviving warm cache.
func (e *Engine) Apply(ctx context.Context, d Delta) (*ApplyReport, error) {
	if d.edits() == 0 {
		return nil, fmt.Errorf("bonsai: empty delta")
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	bt := newBatch(e.state.Load())
	if err := bt.add(&d); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidDelta, err)
	}
	return e.applyBatch(ctx, bt)
}

// oversized reports whether a net change of links link records and routers
// routers makes the per-class adoption sweep a bad bet: when a batch flaps a
// quarter of the links or edits a quarter of the routers, almost every
// class fails its stability checks anyway, so the sweep's O(classes ×
// degree) cost buys nothing. The engine then degrades gracefully — cold
// successor snapshot, every class recompresses lazily on its next query —
// instead of erroring or grinding through a doomed sweep.
func oversized(cfg *config.Network, links, routers int) bool {
	return links*4 > len(cfg.Links) || routers*4 > len(cfg.Routers)
}

// applyBatch is the one cut of Apply, ApplyStream and ApplyAll: settle the
// batch to its net change and, unless that is empty, rebuild, adopt (or
// degrade) and swap. The report's Coalesced counts the batch's edits the
// net change does not hold. The caller holds applyMu, and bt was made from
// the snapshot being served. Any panic in the rebuild or adoption machinery
// is contained here: the snapshot is not swapped, the old state keeps
// serving queries, and the panic surfaces as an error with the stack
// attached.
func (e *Engine) applyBatch(ctx context.Context, bt *batch) (rep *ApplyReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = fmt.Errorf("bonsai: apply panicked (snapshot unchanged): %v\n%s", r, debug.Stack())
		}
	}()
	start := time.Now()
	st := e.state.Load()
	links, routers := bt.settle()
	if links == 0 && len(routers) == 0 {
		return &ApplyReport{Classes: len(st.b.Classes()), Coalesced: bt.edits, Duration: time.Since(start)}, nil
	}
	b2, err := st.b.Successor(bt.cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: it produces an invalid network: %w", ErrInvalidDelta, err)
	}
	if e.opts.memBudget > 0 {
		b2.SetAbstractionBudget(e.opts.memBudget)
	}
	// The compiled-policy pool stays warm across the swap on its own:
	// relation caches ride on the compilers (policy.Compiler.Cache), and
	// entries are keyed by policy-namespace pointer, which unchanged routers
	// share with the old config.
	st2 := e.newState(bt.cfg, b2)

	var stats build.AdoptStats
	degraded := oversized(st.cfg, links, len(routers))
	if degraded {
		// Cold successor: no adoption sweep, every class recompresses
		// lazily.
		stats = build.ColdStats(st.b, b2)
	} else {
		pc := e.acquire(st2)
		defer e.release(pc)
		stats, err = b2.AdoptFrom(ctx, pc.comp, st.b, build.AdoptDelta{TouchedRouters: routers})
		if err != nil {
			return nil, err // state not swapped; the old snapshot stays live
		}
	}
	faultinject.Fire(faultinject.ApplySwap, "")
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
		Classes:    len(b2.Classes()),
		AdoptStats: stats,
		Degraded:   degraded,
		Coalesced:  bt.edits - links - len(routers),
		Duration:   time.Since(start),
	}, nil
}
