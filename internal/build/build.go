// Package build is the orchestration layer tying the algorithmic packages
// into one compression pipeline (paper §7): it parses a vendor-independent
// network into an SRP topology, enumerates destination equivalence classes,
// compiles routing policies into canonical BDDs, runs the refinement loop of
// internal/core per class, and instantiates concrete and abstract SRP
// simulations for the verification engines.
//
// A Builder is safe for concurrent use: the verify engines fan out across
// destination classes with one goroutine per worker. The only shared mutable
// state is a set of caches guarded by a mutex; each policy.Compiler, however,
// wraps a single BDD manager and must not be shared between goroutines —
// create one compiler per worker (NewCompiler is cheap because the community
// universes and variable ordering are computed once per Builder).
package build

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"bonsai/internal/config"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
	"bonsai/internal/topo"
)

// Builder owns the parsed network, its SRP topology and the caches shared
// across per-class compressions.
type Builder struct {
	// Cfg is the parsed network configuration.
	Cfg *config.Network
	// id names the Builder to the per-compiler adjacency slot (dedup.go)
	// without keeping it alive: pooled compilers outlive their Builder.
	id uint64
	// G is the SRP topology: one vertex per router, a pair of directed edges
	// per link.
	G *topo.Graph

	routers []*config.Router // indexed by NodeID
	hasBGP  bool

	// Community universes, computed once so that every compiler shares the
	// same variable ordering (paper §7: BDDs are built once per network).
	erasedUniverse []protocols.Community // only communities ever matched
	fullUniverse   []protocols.Community // every community mentioned

	// tab is the class-independent per-edge state, dense vectors aligned
	// with G.Edges() (tables.go).
	tab *edgeTables

	classesOnce sync.Once
	classIdx    ec.Index // the classes and their lookup trie, built once

	// Shared compilation universes (policy.Space): the canonical BDD
	// constant space per universe, built once so stamping a per-worker
	// compiler copies three flat arrays instead of re-deriving the
	// vocabulary. Index 0 = full universe, 1 = erased.
	polSpaces [2]*policy.Space

	matchedSet map[protocols.Community]bool // erasedUniverse as a set; read-only after New

	// Cross-EC deduplication (dedup.go, transport.go): classes are
	// fingerprinted and compressed once per distinct fingerprint; symmetric
	// classes are served by verified partition transport. Completed
	// abstractions live in the bounded store (store.go); the match-outcome
	// intern table (shared along a chain of adopting successors, its size
	// bounded by shareIntern) and the prefix->fingerprint memo (guarded by
	// intern.mu) survive eviction, so evicted classes re-enter the store
	// without recomputing signatures they already proved deterministic.
	intern     *internTable
	fpByPrefix map[netip.Prefix]string
	store      absStore

	statics []edgeStatic // every static route on a live link, in router order (staticMask)
	ends    []int32      // config.LinkEnds of Cfg.Links by NodeID, carried along a chain of successors
	diff    *edgeDiff    // a successor's edges against its predecessor's, read by AdoptFrom

	// onTransport, set by tests only, observes every transport as it lands:
	// the seed, and the π and edge permutation (the compiler's scratch: a
	// hook that keeps it copies) the class was served under.
	onTransport func(seed *absEntry, pi []topo.NodeID, epi []int32)
}

// edgeStatic is a static route's masked prefix and the edge toward its next hop.
type edgeStatic struct {
	prefix netip.Prefix
	edge   int32
}

// internTable interns match-outcome strings (classSignature) as dense ids.
// An id names one string in every Builder that shares the table, which is
// what lets a successor inherit a predecessor's signatures (adopt.go). mu
// also guards the fpByPrefix memo of every Builder sharing the table.
type internTable struct {
	mu  sync.Mutex
	ids map[string]int32
}

func (t *internTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ids)
}

// builderIDs issues Builder.id.
var builderIDs atomic.Uint64

// New validates the network and constructs its Builder: the SRP graph, the
// per-edge protocol tables and the shared community universes.
func New(net *config.Network) (*Builder, error) { return construct(net, nil) }

// Successor is New(net) for a net derived from b.Cfg as an apply derives
// one: a config.Network.Fork whose edited routers are clones (with a fresh
// Env where their policy changed) and whose link records are b's, Down
// flipped, plus appended links. What changed is read off net by comparing
// pointers with b's, never from a hint, and only that is rebuilt; a net with
// other router names, or without b's link records at b's positions, is built
// by New. The result equals New(net) field for field (TestSuccessorEqualsNew)
// and holds no pointer to b.
func (b *Builder) Successor(net *config.Network) (*Builder, error) { return construct(net, b) }

// construct is New and Successor: prev, the predecessor, may be nil.
func construct(net *config.Network, prev *Builder) (*Builder, error) {
	if net == nil {
		return nil, fmt.Errorf("build: nil network")
	}
	b := &Builder{
		Cfg:        net,
		id:         builderIDs.Add(1),
		intern:     &internTable{ids: make(map[string]int32)},
		fpByPrefix: make(map[netip.Prefix]string),
		store:      newAbsStore(),
	}
	// fresh marks the routers not taken from prev: all of them without one,
	// else those whose pointer changed. A successor shares prev's name table
	// and the ids of prev's link records; dirty marks the ends of the records
	// whose Down flipped or that were appended, the only routers whose edges
	// can differ from prev's.
	links, ends := net.Links, []int32(nil)
	var fresh, dirty []bool
	if prev != nil {
		if len(net.Routers) != len(prev.routers) || len(links) < len(prev.Cfg.Links) {
			return New(net)
		}
		dirty = make([]bool, len(prev.routers))
		for i, l := range prev.Cfg.Links {
			if links[i].A != l.A || links[i].B != l.B {
				return New(net)
			}
			if links[i].Down != l.Down {
				dirty[prev.ends[2*i]], dirty[prev.ends[2*i+1]] = true, true
			}
		}
		// b.G is prev's name table until dirty is whole.
		b.G, b.routers, fresh = prev.G, make([]*config.Router, len(prev.routers)), make([]bool, len(prev.routers))
		for u, old := range prev.routers {
			r, ok := net.Routers[b.G.Name(topo.NodeID(u))]
			if !ok {
				return New(net)
			}
			b.routers[u], fresh[u] = r, r != old
		}
		links, ends = links[len(prev.Cfg.Links):], slices.Clip(prev.ends)
	} else {
		names := net.RouterNames()
		b.G, b.routers, fresh = topo.New(), make([]*config.Router, len(names)), make([]bool, len(names))
		for u, name := range names {
			b.G.AddNode(name)
			b.routers[u], fresh[u] = net.Routers[name], true
		}
	}
	id := func(name string) (int32, bool) {
		v, ok := b.G.Lookup(name)
		return int32(v), ok
	}
	more, err := config.LinkEnds(links, id)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if b.ends = more; prev != nil {
		b.ends = append(ends, more...)
		for _, u := range more {
			dirty[u] = true
		}
		b.G = prev.G.Rewired(dirty)
	}
	// Validation is per router: an unchanged router read only itself, its
	// Env and its peers, and a successor keeps every link record, so its
	// verdict stands (config.CheckRouter).
	var adj *config.Adjacency
	envChanged := prev == nil
	for u, r := range b.routers {
		if r.BGP != nil {
			b.hasBGP = true
		}
		if !fresh[u] {
			continue
		}
		if adj == nil {
			adj = config.NewAdjacency(len(b.routers), b.ends)
		}
		if err := config.CheckRouter(b.G.Name(topo.NodeID(u)), r, adj.Peers(int32(u)), id); err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		envChanged = envChanged || r.Env != prev.routers[u].Env
	}
	// A successor adds only the links at dirty routers.
	deg := make([]int32, len(b.routers))
	for i, l := range net.Links {
		if !l.Down && (dirty == nil || dirty[b.ends[2*i]] || dirty[b.ends[2*i+1]]) { // administratively down: no SRP adjacency
			deg[b.ends[2*i]]++
			deg[b.ends[2*i+1]]++
		}
	}
	b.G.Reserve(deg)
	for i, l := range net.Links {
		if !l.Down && (dirty == nil || dirty[b.ends[2*i]] || dirty[b.ends[2*i+1]]) {
			b.G.AddLink(topo.NodeID(b.ends[2*i]), topo.NodeID(b.ends[2*i+1]))
		}
	}
	if prev != nil {
		b.G.SpliceIndex(prev.G, dirty)
		b.diff = &edgeDiff{from: prev.id}
		b.diff.runs, b.diff.removed, b.diff.added = b.G.Diff(prev.G, dirty)
	}
	nStatic := 0
	for _, r := range b.routers {
		nStatic += len(r.Statics)
	}
	b.statics = make([]edgeStatic, 0, nStatic)
	for u, r := range b.routers {
		for _, s := range r.Statics { // validated: the next hop is a peer
			if i, ok := b.G.EdgeIndex(topo.NodeID(u), b.G.MustLookup(s.NextHop)); ok {
				b.statics = append(b.statics, edgeStatic{s.Prefix.Masked(), int32(i)})
			}
		}
	}
	// The universes and spaces read every router's Env and nothing else.
	if envChanged {
		b.erasedUniverse = net.MatchedCommunities()
		b.fullUniverse = net.AllCommunities()
		b.matchedSet = make(map[protocols.Community]bool, len(b.erasedUniverse))
		for _, c := range b.erasedUniverse {
			b.matchedSet[c] = true
		}
		b.polSpaces[0] = policy.NewSpace(b.fullUniverse)
		b.polSpaces[1] = policy.NewSpace(b.erasedUniverse)
	} else {
		b.erasedUniverse, b.fullUniverse, b.matchedSet, b.polSpaces = prev.erasedUniverse, prev.fullUniverse, prev.matchedSet, prev.polSpaces
		b.tab = prev.tab.successor(b.G, b.routers, fresh, b.diff)
	}
	if b.tab == nil {
		b.tab = newEdgeTables(b.G, b.routers, b.matchedSet)
	}
	return b, nil
}

// classIndex enumerates the destination classes on first use. A Builder
// never outlives its configuration, so the index is built once and is
// immutable from then on.
func (b *Builder) classIndex() ec.Index {
	b.classesOnce.Do(func() { b.classIdx = ec.NewIndex(b.Cfg) })
	return b.classIdx
}

// Classes returns the destination equivalence classes of the network,
// deterministically ordered by prefix (paper §5.1). The slice is computed
// once and shared; callers must not modify it.
func (b *Builder) Classes() []ec.Class { return b.classIndex().Classes() }

// ClassFor returns the destination class a query for prefix targets: the
// class with exactly that prefix, else the one owning its address. It walks
// the index the classes were enumerated from, so a lookup is at most 32
// steps and allocates nothing.
func (b *Builder) ClassFor(prefix string) (ec.Class, error) {
	return b.classIndex().ClassFor(prefix)
}

// ClassFingerprint returns the class's deduplication fingerprint — the
// parallel fan-out's ordering key: classes with equal fingerprints share
// one abstraction, so the worker pool hands out every fingerprint's first
// class before any repeat, and a repeat finds its leader's result cached or
// in flight. The prefix -> fingerprint memo is Builder-lifetime (eviction
// from the abstraction store never invalidates it: the mapping is
// deterministic), so repeated fan-outs pay the signature once per class
// (Compress computes its own on a miss).
func (b *Builder) ClassFingerprint(cls ec.Class) (string, error) {
	b.intern.mu.Lock()
	fp, ok := b.fpByPrefix[cls.Prefix]
	b.intern.mu.Unlock()
	if ok {
		return fp, nil
	}
	sig, err := b.classSignature(cls)
	if err != nil {
		return "", err
	}
	return sig.fp, nil
}

// HasBGP reports whether any router runs BGP; if so, compression uses the
// BGP-effective mode (∀∀ refinement plus case splitting, paper §4.3).
func (b *Builder) HasBGP() bool { return b.hasBGP }

// NewCompiler creates a policy compiler over the network's community
// universe. With eraseUnusedTags, the universe contains only communities
// that some route map can match, implementing the unused-tag-erasing
// attribute abstraction of §8; otherwise every mentioned community gets BDD
// variables. Compilers reuse the Builder's precomputed universes, so the
// variable ordering is identical across compilers and the per-compiler
// canonical edge-policy cache composes across destination classes.
//
// Symmetry transport reads route maps as the erasing compiler does
// (transport.go), so Compress transports only on a compiler made with
// eraseUnusedTags by a Builder with the same matched communities; on any
// other it compresses every miss fresh.
//
// A compiler (and its BDD manager) must only be used by one goroutine at a
// time; create one per worker for parallel compression.
func (b *Builder) NewCompiler(eraseUnusedTags bool) *policy.Compiler {
	sp := b.polSpaces[0]
	if eraseUnusedTags {
		sp = b.polSpaces[1]
	}
	c := sp.NewCompiler()
	cc := newCompilerCache()
	cc.erased = eraseUnusedTags
	if eraseUnusedTags {
		cc.universe = b.erasedUniverse
	}
	c.Cache = cc
	return c
}

// Serves reports whether comp may serve b's classes: it was made by
// NewCompiler(true) over b's erased universe, by b or by any Builder with
// the same matched communities. A compiler pool kept across deltas keeps
// exactly the compilers the current snapshot's Builder accepts.
func (b *Builder) Serves(comp *policy.Compiler) bool {
	cc, ok := comp.Cache.(*compilerCache)
	return ok && cc.erasesFor(b)
}

// cacheFor returns the canonical-relation cache riding on comp, creating
// one for foreign compilers (not obtained via NewCompiler). The cache lives
// on the compiler itself — owned by the worker goroutine that owns the
// compiler, reachable exactly as long as the compiler is, and carried along
// when a pool's compilers outlive a configuration delta — so workers never
// serialize on a Builder-level registry lock, and a dropped compiler's BDD
// tables become garbage with it.
func (b *Builder) cacheFor(comp *policy.Compiler) *compilerCache {
	if cc, ok := comp.Cache.(*compilerCache); ok {
		return cc
	}
	cc := newCompilerCache()
	comp.Cache = cc
	return cc
}

// destOf resolves the destination vertex of a class. Classes always carry at
// least one origin; anycast classes (several origins) are modelled from
// their first origin, which is the only form the evaluation networks use.
func (b *Builder) destOf(cls ec.Class) (topo.NodeID, error) {
	if len(cls.Origins) == 0 {
		return 0, fmt.Errorf("build: class %v has no origin router", cls.Prefix)
	}
	dest, ok := b.G.Lookup(cls.Origins[0])
	if !ok {
		return 0, fmt.Errorf("build: class %v origin %q is not a router", cls.Prefix, cls.Origins[0])
	}
	return dest, nil
}

// staticMask returns the directed edges (u, v) on which u has a static
// route applicable to the class: its prefix covers the class prefix (equal
// or shorter, so the class's addresses fall under it) and points via v. It
// is nil when none applies, so the common case allocates nothing.
//
// Limitation: the class partition (internal/ec) splits the address space on
// originated prefixes only, so a static route strictly finer than its class
// prefix would govern only part of the class's range and is excluded here
// rather than modelled per sub-range. Configurations from the generators
// never contain such statics (theirs are exact originated prefixes or
// defaults); hand-written ones that do will see those statics ignored.
func (b *Builder) staticMask(cls ec.Class) topo.EdgeSet {
	var mask topo.EdgeSet
	for _, s := range b.statics {
		if staticCovers(s.prefix, cls.Prefix) {
			if mask == nil {
				mask = topo.NewEdgeSet(len(b.tab.edges))
			}
			mask.Set(int(s.edge))
		}
	}
	return mask
}

// staticCovers reports whether a static route for sp governs the class
// prefix: equal or shorter, with the class's addresses under it.
func staticCovers(sp, cls netip.Prefix) bool {
	sp = sp.Masked()
	return sp.Bits() <= cls.Bits() && sp.Contains(cls.Addr())
}

// aclPermit reports whether traffic for the class may be forwarded along
// edge i, out the interface of its tail toward its head (paper §6: ACLs
// filter traffic, not routes).
func (b *Builder) aclPermit(i int, cls ec.Class) bool {
	a := b.tab.recs[i].acl
	if a < 0 {
		return true
	}
	r := b.tab.sigACLs[a]
	return r.env.ACLPermits(r.name, cls.Prefix)
}

// ACLPermitFunc returns the dataplane ACL verdict function for the concrete
// network and one destination class.
func (b *Builder) ACLPermitFunc(cls ec.Class) func(u, v topo.NodeID) bool {
	return func(u, v topo.NodeID) bool {
		i, ok := b.G.EdgeIndex(u, v)
		return !ok || b.aclPermit(i, cls)
	}
}
