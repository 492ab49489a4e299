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

// Result aggregates one verification run.
type Result struct {
	Mode            string // "concrete" or "bonsai"
	Classes         int
	Pairs           int64 // (source, class) pairs checked
	ReachablePairs  int64
	AbstractNodeSum int64         // total abstract nodes across classes (bonsai mode)
	Compress        time.Duration // time spent compressing (bonsai mode)
	Total           time.Duration
	// DistinctAbstractions is provenance, not an answer: the Builder's
	// cumulative count of abstractions computed by refinement (bonsai mode).
	// It depends on what the cache had already seen — an earlier Compress,
	// adoption across a delta — so two engines over the same configuration
	// may report different values for the same verdict.
	DistinctAbstractions int
	// solves counts the classes whose control plane was solved, per-pair
	// certification's re-analyses aside: one per fingerprint group in bonsai
	// mode, one per class in concrete mode.
	solves int64
}

func (r *Result) String() string {
	s := fmt.Sprintf("%s: classes=%d pairs=%d reachable=%d compress=%v total=%v",
		r.Mode, r.Classes, r.Pairs, r.ReachablePairs, r.Compress, r.Total)
	if r.Mode == "bonsai" {
		s += fmt.Sprintf(" distinctAbs=%d", r.DistinctAbstractions)
	}
	return s
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
	// Compilers, when it holds exactly Fanout(b) entries, supplies the
	// per-worker policy compilers for the bonsai engine instead of fresh
	// ones — long-lived callers pass pooled compilers so their BDD tables
	// survive across calls. Each compiler is used by one worker goroutine
	// for the duration of the call.
	Compilers []*policy.Compiler
}

// Fanout is how many workers an AllPairs call over b runs, and so how many
// compilers it uses: Workers (0 means GOMAXPROCS), but never more than the
// classes it verifies.
func (o Options) Fanout(b *build.Builder) int {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, len(clip(b.Classes(), o.MaxClasses)))
}

// AllPairsConcrete verifies all-pairs reachability on the concrete network.
// Cancelling ctx stops the worker goroutines promptly and returns the
// context's error.
func AllPairsConcrete(ctx context.Context, b *build.Builder, opts Options) (*Result, error) {
	return allPairs(ctx, b, opts, false, nil)
}

// AllPairsBonsai verifies all-pairs reachability after compressing the
// classes with Bonsai: classes with equal deduplication fingerprints share
// one compression and one solve, counted once per class. The reported time
// includes compression, as in Figure 12. Cancelling ctx stops the worker goroutines promptly (including
// mid-compression) and returns the context's error.
func AllPairsBonsai(ctx context.Context, b *build.Builder, opts Options) (*Result, error) {
	// One policy compiler per worker: BDD managers are not safe for
	// concurrent use, but sharing one across a worker's classes amortises
	// BDD construction exactly as the paper's implementation does (§7:
	// BDDs are built once, classes are compressed in parallel).
	compilers := opts.Compilers
	if n := opts.Fanout(b); len(compilers) != n {
		compilers = make([]*policy.Compiler, n)
		for i := range compilers {
			compilers[i] = b.NewCompiler(true)
		}
	}
	res, err := allPairs(ctx, b, opts, true, compilers)
	res.DistinctAbstractions = b.AbstractionCacheStats().Fresh
	return res, err
}

// allPairs fans b's classes out over opts.Fanout(b) workers, compressing
// each class with its worker's compiler or, unless compressed, solving it
// concretely. Compressed, each fingerprint group is fanned out as one item
// and solved through its first class: a fingerprint is everything
// AbstractInstance and AbstractACLPermitFunc read of a class (destination,
// origins, statics, route-map matches, ACL verdicts), so the group's other
// members would build the same instance from the same abstraction and get
// the same answer. Concrete mode stays per class; it is the oracle the
// grouping is tested against. Each worker folds its classes into its own
// tally and the tallies are summed after the run, so no lock is shared
// between workers or between calls.
func allPairs(ctx context.Context, b *build.Builder, opts Options, compressed bool, compilers []*policy.Compiler) (*Result, error) {
	classes := clip(b.Classes(), opts.MaxClasses)
	res := &Result{Mode: "concrete", Classes: len(classes)}
	key := func(ec.Class) string { return "" } // every class its own group
	if compressed {
		res.Mode, key = "bonsai", FingerprintKey(b)
	}
	// In first-occurrence order; a "" key never joins a group.
	groups, groupOf := make([][]ec.Class, 0, len(classes)), make(map[string]int)
	for i, cls := range classes {
		k := key(cls)
		if g, ok := groupOf[k]; ok {
			groups[g] = append(groups[g], cls)
			continue
		}
		if k != "" {
			groupOf[k] = len(groups)
		}
		// Capped at one, so a second member copies instead of
		// overwriting classes[i+1].
		groups = append(groups, classes[i:i+1:i+1])
	}
	tallies := make([]tally, opts.Fanout(b))
	start := time.Now()
	// No group shares a key with another, so the pool gets no key.
	err := ForEachClassKeyed(ctx, groups, len(tallies), nil, func(worker int, members []ec.Class) error {
		var comp *policy.Compiler
		if compressed {
			comp = compilers[worker]
		}
		return tallies[worker].addGroup(ctx, b, comp, members, compressed, opts.PerPairCertification)
	})
	res.Total = time.Since(start)
	for _, t := range tallies {
		res.Pairs += t.pairs
		res.ReachablePairs += t.reachable
		res.AbstractNodeSum += t.absNodes
		res.Compress += t.compress
		res.solves += t.solves
	}
	return res, err
}

// tally is one worker's share of a Result's counts.
type tally struct {
	pairs, reachable, absNodes, solves int64
	compress                           time.Duration
}

// addGroup solves the group's first class and folds its counts into the
// tally once per member. With perPair the control plane is re-analysed once
// per source of every member, modelling a per-query verifier; that loop
// observes ctx so cancellation interrupts even a single large class
// promptly.
func (t *tally) addGroup(ctx context.Context, b *build.Builder, comp *policy.Compiler, members []ec.Class, compressed, perPair bool) error {
	s, err := solveClass(ctx, b, comp, members[0], compressed)
	if err != nil {
		return err
	}
	for _, cls := range members {
		for i := int64(0); perPair && i < s.sources; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, err := analyse(b, cls, s.abs); err != nil {
				return err
			}
		}
	}
	n := int64(len(members))
	t.solves++
	t.pairs += n * s.sources
	t.reachable += n * s.delivered
	t.compress += s.compress
	if s.abs != nil {
		t.absNodes += n * int64(s.abs.NumAbstractNodes())
	}
	return nil
}

// ReachSet is the answer for one destination class: bit u is set when
// concrete router u delivers traffic to the class. It is a plain bit vector
// with no reference to the network it was computed on, so holding one keeps
// neither an SRP instance nor an abstraction alive.
type ReachSet []uint64

// Has reports whether router u reaches the class.
func (s ReachSet) Has(u topo.NodeID) bool { return s[u>>6]>>(uint(u)&63)&1 != 0 }

// classSolution is one control-plane analysis of a class.
type classSolution struct {
	reach ReachSet
	// sources counts the nodes of the network that was solved (the abstract
	// one under compression) other than the destination; delivered, how many
	// of them reach it.
	sources, delivered int64
	abs                *core.Abstraction // nil when solved concretely
	compress           time.Duration     // time inside Builder.Compress
}

// solveClass is the one chain every reachability answer comes from:
// compress the class (when asked), build its SRP instance, solve it, derive
// the forwarding state and close it under reachability. comp supplies the
// policy compiler for compression; nil creates a fresh one.
func solveClass(ctx context.Context, b *build.Builder, comp *policy.Compiler, cls ec.Class, compressed bool) (classSolution, error) {
	var abs *core.Abstraction
	var took time.Duration
	if compressed {
		if comp == nil {
			comp = b.NewCompiler(true)
		}
		start := time.Now()
		var err error
		if abs, err = b.Compress(ctx, comp, cls); err != nil {
			return classSolution{}, err
		}
		took = time.Since(start)
	}
	s, err := analyse(b, cls, abs)
	s.compress = took
	return s, err
}

// analyse solves the class on its abstraction, or on the concrete network
// when abs is nil, and projects the reach set onto the concrete routers. A
// router stands for every copy of its group: with BGP case splitting it may
// map to several, and it reaches the class when any copy does (Theorem 4.5's
// caveat: properties are checked against all copies).
func analyse(b *build.Builder, cls ec.Class, abs *core.Abstraction) (classSolution, error) {
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
		return classSolution{}, err
	}
	sol, err := srp.Solve(inst)
	if err != nil {
		return classSolution{}, fmt.Errorf("class %v: %w", cls.Prefix, err)
	}
	solved := dataplane.New(inst, sol, acl).ReachableSet()
	s := classSolution{abs: abs, sources: int64(len(solved)) - 1}
	for u, ok := range solved {
		if ok && topo.NodeID(u) != inst.Dest {
			s.delivered++
		}
	}
	n := b.G.NumNodes()
	s.reach = make(ReachSet, (n+63)/64)
	for u := 0; u < n; u++ {
		ok := false
		if abs == nil {
			ok = solved[u]
		} else {
			for _, c := range abs.Copies[abs.F[u]] {
				ok = ok || solved[c]
			}
		}
		if ok {
			s.reach[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	return s, nil
}

// ClassReach solves one class and returns which routers reach it, on the
// compressed network or, with compressed false, by simulating the concrete
// one. The answer depends on b's configuration alone, so callers may keep it
// for as long as they keep b.
func ClassReach(ctx context.Context, b *build.Builder, comp *policy.Compiler, cls ec.Class, compressed bool) (ReachSet, error) {
	s, err := solveClass(ctx, b, comp, cls, compressed)
	return s.reach, err
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

// Reach answers a single reachability query: can traffic from src reach the
// destination prefix? With useBonsai, the query runs on the compressed
// network (src is mapped through the topology function f). comp, when
// non-nil, supplies the policy compiler for the bonsai path — long-lived
// callers pass one to reuse its BDD tables across queries; nil creates a
// fresh compiler per call.
func Reach(ctx context.Context, b *build.Builder, comp *policy.Compiler, srcName, destPrefix string, useBonsai bool) (bool, time.Duration, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return false, 0, err
	}
	cls, src, err := ResolveQuery(b, srcName, destPrefix)
	if err != nil {
		return false, 0, err
	}
	reach, err := ClassReach(ctx, b, comp, cls, useBonsai)
	if err != nil {
		return false, 0, err
	}
	return reach.Has(src), time.Since(start), nil
}

func clip(classes []ec.Class, max int) []ec.Class {
	if max > 0 && len(classes) > max {
		return classes[:max]
	}
	return classes
}

// ForEachClassKeyed fans f out over classes (or groups of them). With
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
// leaders-first order and for AllPairsBonsai's one solve per group: the
// deduplication fingerprint, or "" (a group of its own) for classes whose
// fingerprint cannot be computed — those fail identically inside Compress,
// which reports the actual error.
func FingerprintKey(b *build.Builder) func(ec.Class) string {
	return func(cls ec.Class) string {
		fp, err := b.ClassFingerprint(cls)
		if err != nil {
			return ""
		}
		return fp
	}
}
