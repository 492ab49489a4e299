// Package verify provides the two analysis engines used in the paper's
// evaluation (§8), reimplemented over Bonsai's own control-plane simulator:
//
//   - AllPairs: an all-pairs reachability verifier standing in for
//     Minesweeper (Figure 12). For every destination equivalence class it
//     computes the stable control plane, derives the data plane, and checks
//     which sources deliver traffic. Its cost grows with classes × network
//     size, so — like the SMT-based original — it benefits dramatically from
//     running on the compressed network.
//
//   - Reach: a single source/destination reachability query standing in for
//     the Batfish-plus-NoD query of §8, again with and without compression.
//
// Absolute runtimes differ from the paper's (different machinery); the
// comparison *shape* — concrete cost exploding with size while the abstract
// cost stays near-flat — is what these engines reproduce.
package verify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"bonsai/internal/build"
	"bonsai/internal/core"
	"bonsai/internal/dataplane"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
	"bonsai/internal/sched"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// Answer is what a verification run answers. It depends on the
// configuration, the mode and the class bound alone, so two runs over one
// configuration compare equal with ==, whatever their caches had seen. The
// root package serves it as bonsai.VerifyAnswer, and its JSON keys are the
// first ones of bonsai.Report's.
type Answer struct {
	// Mode is "concrete" or "bonsai".
	Mode    string `json:"mode"`
	Classes int    `json:"classes"`
	// Pairs counts the (source, class) queries checked; ReachablePairs how
	// many delivered traffic.
	Pairs          int64 `json:"pairs"`
	ReachablePairs int64 `json:"reachable_pairs"`
	// AbstractNodeSum totals abstract node counts across classes (bonsai
	// mode).
	AbstractNodeSum int64 `json:"abstract_node_sum,omitempty"`
	// Stable is the weakest verdict among the verified classes (Unique <
	// Multiple < None < Unknown): a pair counts as reachable when it
	// delivers in every solution its class counted.
	Stable Stability `json:"stable,omitempty"`
}

// Result aggregates one verification run: its Answer and the provenance
// beside it.
type Result struct {
	Answer
	Compress time.Duration // time spent compressing (bonsai mode)
	Total    time.Duration
	// solves counts the classes whose control plane this run solved,
	// per-pair certification's re-analyses aside: one per fingerprint group
	// not yet in the memo in bonsai mode, one per class in concrete mode.
	solves int64
}

func (r *Result) String() string {
	return fmt.Sprintf("%s: classes=%d pairs=%d reachable=%d compress=%v total=%v",
		r.Mode, r.Classes, r.Pairs, r.ReachablePairs, r.Compress, r.Total)
}

// Options configures a verification run.
type Options struct {
	// MaxClasses bounds the destination classes verified (0 = all).
	MaxClasses int
	// Workers parallelises across classes, as Bonsai's implementation does
	// (§7). 0 means GOMAXPROCS.
	Workers int
	// PerPairCertification makes the verifier re-analyse the control plane
	// for every (source, destination) query, the way a per-query verifier
	// like Minesweeper re-encodes the network for each SMT query. This is
	// the mode used to regenerate Figure 12. Without it, one simulation is
	// shared by all sources of a class (Batfish-style), the cheapest
	// possible baseline.
	PerPairCertification bool
	// Compilers, up to one per worker, are lent to AllPairsBonsai's
	// compressions instead of fresh ones, so a caller's BDD tables survive
	// across calls.
	Compilers []*policy.Compiler
}

// fanout is how many workers an all-pairs call over b runs, and so how many
// compilers it lends at most: Workers (0 means GOMAXPROCS), but never more
// than the classes it verifies.
func (o Options) fanout(b *build.Builder) int {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, len(clip(b.Classes(), o.MaxClasses)))
}

// AllPairsConcrete verifies all-pairs reachability on the concrete network:
// the fold of Memo.AllPairs with every class solved on its own and nothing
// remembered, so no class keeps its first solution past its turn.
// Cancelling ctx stops the worker goroutines promptly and returns the
// context's error.
func AllPairsConcrete(ctx context.Context, b *build.Builder, opts Options) (*Result, error) {
	return allPairs(ctx, b, nil, opts)
}

// AllPairsBonsai verifies all-pairs reachability after compressing the
// classes with Bonsai: Memo.AllPairs over a memo that lives for the call,
// so classes with equal fingerprints share one compression and one solve,
// counted once per class. The reported time includes compression, as in
// Figure 12. Cancelling ctx stops the worker goroutines promptly (including
// mid-compression) and returns the context's error.
func AllPairsBonsai(ctx context.Context, b *build.Builder, opts Options) (*Result, error) {
	// A compiler per worker, shared across its classes: BDDs are built once
	// and classes are compressed in parallel (§7). A worker holds at most
	// one at a time, so idle never runs dry.
	idle := make(chan *policy.Compiler, opts.fanout(b))
	for i := range cap(idle) {
		if i < len(opts.Compilers) {
			idle <- opts.Compilers[i]
		} else {
			idle <- b.NewCompiler(true)
		}
	}
	return NewMemo(b, nil, func() (*policy.Compiler, func()) {
		c := <-idle
		return c, func() { idle <- c }
	}).AllPairs(ctx, opts)
}

// allPairs fans b's classes out over opts.fanout(b) workers and folds each
// class's answer into its worker's tally: compressed, looked up in m
// leaders-first by fingerprint; with a nil m, solved concretely. Each
// worker folds its classes into its own tally and the tallies are summed
// after the run, so no lock is shared between workers or between calls.
func allPairs(ctx context.Context, b *build.Builder, m *Memo, opts Options) (*Result, error) {
	classes := clip(b.Classes(), opts.MaxClasses)
	res := &Result{Answer: Answer{Mode: "concrete", Classes: len(classes)}}
	tallies := make([]tally, opts.fanout(b))
	var key func(ec.Class) string
	if m != nil {
		res.Mode, key = "bonsai", m.group
	}
	start := time.Now()
	err := ForEachClassKeyed(ctx, classes, len(tallies), key, func(worker int, cls ec.Class) error {
		return tallies[worker].add(ctx, b, m, cls, opts.PerPairCertification)
	})
	res.Total = time.Since(start)
	for _, t := range tallies {
		res.Pairs += t.pairs
		res.ReachablePairs += t.reachable
		res.AbstractNodeSum += t.absNodes
		res.Compress += t.compress
		res.solves += t.solves
		res.Stable = weaker(res.Stable, t.stable)
	}
	return res, err
}

// tally is one worker's share of a Result's counts.
type tally struct {
	pairs, reachable, absNodes, solves int64
	compress                           time.Duration
	stable                             Stability
}

// add folds cls's answer into the tally: its group's memo entry when m is
// set, else a concrete solve of its own. With perPair the control plane is
// then analysed again once per source, modelling a per-query verifier, each
// time with the abstraction from the store; that loop observes ctx, so
// cancellation interrupts even a single large class promptly.
func (t *tally) add(ctx context.Context, b *build.Builder, m *Memo, cls ec.Class, perPair bool) error {
	var e entry
	var took time.Duration
	var err error
	var comp *policy.Compiler
	solved := true
	if m == nil {
		e, took, err = solve(ctx, b, nil, cls, false)
	} else {
		var f *flight
		if f, took, solved, err = m.lookup(ctx, cls, true); err == nil {
			e = f.e
		}
		if perPair && err == nil {
			c, giveBack := m.lend()
			defer giveBack()
			comp = c
		}
	}
	for i := int64(0); perPair && err == nil && i < e.sources; i++ {
		if err = ctx.Err(); err == nil {
			_, err = ClassReach(ctx, b, comp, cls, m != nil)
		}
	}
	if err != nil {
		return err
	}
	t.stable = weaker(t.stable, e.Stable)
	if solved {
		t.solves++
	}
	t.pairs += e.sources
	t.reachable += e.delivered
	t.absNodes += e.nodes
	t.compress += took
	return nil
}

// Stability is what is known of a class's stable solutions, and so which
// solutions an answer about the class counted. Unique is the empty string,
// left off the wire: an answer about a unique class carries no verdict.
type Stability string

const (
	// Unique: one stable solution, certified by the Builder
	// (CertifiesUnique) or found alone by a complete enumeration.
	Unique Stability = ""
	// Multiple: several stable solutions, every one counted.
	Multiple Stability = "multiple"
	// None: no stable solution (a BGP bad gadget); nothing reaches.
	None Stability = "none"
	// Unknown: the enumeration did not finish within srp.Budget; answers
	// count the solutions it found.
	Unknown Stability = "unknown"
)

// weaker returns the weaker of two verdicts, in the order Unique, Multiple,
// None, Unknown.
func weaker(a, b Stability) Stability {
	order := []Stability{Unique, Multiple, None, Unknown}
	if slices.Index(order, a) < slices.Index(order, b) {
		return b
	}
	return a
}

// ClassAnswer is one class's analysis: every concrete router's data-plane
// facts and the verdict naming the counted solutions. Routers of one group
// share their facts, so a compressed answer keeps one entry per group and
// the abstraction's F (shared, not copied) to find it, and no SRP instance
// or abstraction. A concrete answer also holds the first counted solution
// (nil with none), which names the network's own routers.
type ClassAnswer struct {
	Facts    []RouterFacts // per group, or per router when solved concretely
	F        []int         // router to entry of Facts; nil when concrete
	Stable   Stability
	Solution *srp.Solution
}

// Router returns router u's facts.
func (a *ClassAnswer) Router(u topo.NodeID) RouterFacts {
	if a.F == nil {
		return a.Facts[u]
	}
	return a.Facts[a.F[u]]
}

// RouterFacts is one router's facts folded over the counted solutions and
// its group's copies: Facts hold if they hold in some solution at some copy
// (see merge), and Every is "reaches in every solution", which holds when
// every copy reaches in every solution: which copy a router maps to changes
// with the solution (Theorem 4.5). With no solution nothing reaches.
type RouterFacts struct {
	dataplane.Facts
	Every bool
}

// merge folds the facts of traffic that may be in either a's place or b's:
// the fewest hops of the two, the most (unbounded once a loop is
// reachable), and every fault of either. Facts with no hop counts (-1)
// change nothing they are merged with.
func merge(a, b dataplane.Facts) dataplane.Facts {
	switch {
	case !a.Reaches:
		a.MinHops, a.MaxHops = b.MinHops, b.MaxHops
	case b.Reaches:
		a.MinHops, a.MaxHops = min(a.MinHops, b.MinHops), max(a.MaxHops, b.MaxHops)
	}
	a.Reaches = a.Reaches || b.Reaches
	a.Loop = a.Loop || b.Loop
	a.BlackHole = a.BlackHole || b.BlackHole
	a.Inconsistent = a.Inconsistent || b.Inconsistent
	if a.Loop {
		a.MaxHops = -1
	}
	return a
}

// entry is one class's analysis with the counts Verify adds up per class:
// the nodes of the network that was solved (the abstract one under
// compression) other than the destination, how many of them reach it in
// every solution counted, and the abstraction's node count (0 when solved
// concretely).
type entry struct {
	ClassAnswer
	sources, delivered, nodes int64
}

// solve is the one chain every class answer comes from: compress the class
// (when asked), build its SRP instance, solve it, derive the forwarding
// state and its facts (dataplane.Analyse). comp supplies the policy
// compiler for compression; nil creates a fresh one. It also returns the
// time spent inside Builder.Compress.
func solve(ctx context.Context, b *build.Builder, comp *policy.Compiler, cls ec.Class, compressed bool) (entry, time.Duration, error) {
	var abs *core.Abstraction
	var took time.Duration
	if compressed {
		if comp == nil {
			comp = b.NewCompiler(true)
		}
		start := time.Now()
		var err error
		if abs, err = b.Compress(ctx, comp, cls); err != nil {
			return entry{}, 0, err
		}
		took = time.Since(start)
	}
	e, err := analyse(b, cls, abs)
	return e, took, err
}

// Solutions returns the stable solutions of inst, an instance of cls, that
// answers about the class count, and the verdict naming them: Solve's one
// solution when b certifies the class unique (which the abstract instance
// inherits, Theorem 4.5), otherwise srp.Solutions' set under srp.Budget.
func Solutions(b *build.Builder, cls ec.Class, inst *srp.Instance) ([]*srp.Solution, Stability, error) {
	if b.CertifiesUnique(cls) {
		sol, err := srp.Solve(inst)
		if err != nil {
			return nil, Unique, fmt.Errorf("class %v: %w", cls.Prefix, err)
		}
		return []*srp.Solution{sol}, Unique, nil
	}
	sols, complete := srp.Solutions(inst, srp.Budget)
	switch {
	case !complete:
		return sols, Unknown, nil
	case len(sols) == 0:
		return nil, None, nil
	case len(sols) > 1:
		return sols, Multiple, nil
	}
	return sols, Unique, nil
}

// analyse solves the class on its abstraction, or on the concrete network
// when abs is nil, and folds each counted solution's data-plane facts into
// one entry per group (per router when solved concretely). A router stands
// for every copy of its group: with BGP case splitting it may map to
// several, and it reaches the class in a solution when any copy does
// (Theorem 4.5's caveat: properties are checked against all copies).
func analyse(b *build.Builder, cls ec.Class, abs *core.Abstraction) (entry, error) {
	var inst *srp.Instance
	var acl func(u, v topo.NodeID) bool
	var err error
	if abs != nil {
		inst, err = b.AbstractInstance(cls, abs)
		acl = b.AbstractACLPermitFunc(cls, abs)
	} else {
		inst, err = b.Instance(cls)
		acl = b.ACLPermitFunc(cls)
	}
	if err != nil {
		return entry{}, err
	}
	sols, stable, err := Solutions(b, cls, inst)
	if err != nil {
		return entry{}, err
	}
	nodes := inst.G.NumNodes()
	s := entry{sources: int64(nodes) - 1}
	groups := nodes
	if abs != nil {
		s.F, groups, s.nodes = abs.F, len(abs.Copies), int64(abs.NumAbstractNodes())
	} else if len(sols) > 0 {
		s.Solution = sols[0]
	}
	s.Stable, s.Facts = stable, make([]RouterFacts, groups)
	for g := range s.Facts {
		s.Facts[g] = RouterFacts{Facts: dataplane.Facts{MinHops: -1, MaxHops: -1}, Every: len(sols) > 0}
	}
	every := make([]bool, nodes) // per solved node: reaches in every solution so far
	one := []topo.NodeID{0}
	for k, sol := range sols {
		facts := dataplane.New(inst, sol, acl).Analyse()
		for g := range s.Facts {
			copies := one
			if abs != nil {
				copies = abs.Copies[g]
			} else {
				one[0] = topo.NodeID(g)
			}
			r := &s.Facts[g]
			for _, c := range copies {
				r.Facts = merge(r.Facts, facts[c])
				r.Every = r.Every && facts[c].Reaches
			}
		}
		for u, x := range facts {
			every[u] = (k == 0 || every[u]) && x.Reaches
		}
	}
	for u, ok := range every {
		if ok && topo.NodeID(u) != inst.Dest {
			s.delivered++
		}
	}
	return s, nil
}

// ClassReach solves one class with no memo and returns its analysis, on the
// compressed network or, with compressed false, by simulating the concrete
// one: per-pair certification's re-analysis of one query. The answer
// depends on b's configuration alone.
func ClassReach(ctx context.Context, b *build.Builder, comp *policy.Compiler, cls ec.Class, compressed bool) (ClassAnswer, error) {
	e, _, err := solve(ctx, b, comp, cls, compressed)
	return e.ClassAnswer, err
}

// ErrUnknownRouter is wrapped when a query names a source router the network
// does not have.
var ErrUnknownRouter = errors.New("verify: unknown source router")

// ResolveQuery names the class and the source router of a reachability
// query: an index walk and a name lookup, no allocation.
func ResolveQuery(b *build.Builder, srcName, destPrefix string) (ec.Class, topo.NodeID, error) {
	cls, err := b.ClassFor(destPrefix)
	if err != nil {
		return ec.Class{}, 0, err
	}
	src, ok := b.G.Lookup(srcName)
	if !ok {
		return ec.Class{}, 0, fmt.Errorf("%w %q", ErrUnknownRouter, srcName)
	}
	return cls, src, nil
}

func clip(classes []ec.Class, max int) []ec.Class {
	if max > 0 && len(classes) > max {
		return classes[:max]
	}
	return classes
}

// ForEachClassKeyed fans f out over classes. With
// workers <= 1 it runs serially in slice order — the batch reference shape
// the differential tests compare the pool against; otherwise it hands the
// classes to the worker pool of internal/sched, with key (when non-nil)
// ordering them leaders-first by deduplication fingerprint so each
// fingerprint's first class computes once and the repeats, handed out after
// every first class, run on the warm cache. Each invocation of f receives
// its worker index (compilers are per-worker) and runs at most
// min(workers, len(classes)) at a time. Cancelling ctx stops the workers
// promptly and returns the context's error. It is the shared fan-out
// primitive of the verify engines and the public bonsai Engine.
func ForEachClassKeyed[T any](ctx context.Context, classes []T, workers int, key func(T) string, f func(worker int, cls T) error) error {
	if workers <= 1 {
		for _, cls := range classes {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Protect gives the serial path the scheduler's panic
			// containment: a poisoned class fails the call, not the process.
			if err := sched.Protect(0, cls, f); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	return sched.Run(ctx, classes, workers, key, f)
}

// FingerprintKey returns the key that groups b's classes, for the pool's
// leaders-first order and for a Memo's compressed entries: the
// deduplication fingerprint, or the class prefix (a group of its own) for
// classes whose fingerprint cannot be computed — those fail identically
// inside Compress, which reports the actual error. A fingerprint always
// holds a '|', which no prefix does, so the two never collide.
func FingerprintKey(b *build.Builder) func(ec.Class) string {
	return func(cls ec.Class) string {
		fp, err := b.ClassFingerprint(cls)
		if err != nil {
			return cls.Prefix.String()
		}
		return fp
	}
}
