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

	lpOnce sync.Once
	lpUsed bool // some session route map sets a local preference (adopt.go)

	// Shared compilation universes (policy.Space): the canonical BDD
	// constant space per universe, built once so stamping a per-worker
	// compiler copies three flat arrays instead of re-deriving the
	// vocabulary. Index 0 = full universe, 1 = erased.
	polSpaces [2]*policy.Space

	matchedSet map[protocols.Community]bool // erasedUniverse as a set; read-only after New

	// Cross-EC deduplication (dedup.go, transport.go): classes are
	// fingerprinted and compressed once per distinct fingerprint; symmetric
	// classes are served by verified partition transport. Completed
	// abstractions live in the bounded store (store.go); the fingerprint
	// intern table and the prefix->fingerprint memo are Builder-lifetime
	// (they grow with the class count, not with retained abstractions) and
	// survive eviction so evicted classes re-enter the store without
	// recomputing signatures they already proved deterministic.
	internMu   sync.Mutex
	fpIntern   map[string]int32
	fpByPrefix map[netip.Prefix]string
	store      absStore

	// adjReused counts fresh refinements that ran on the adjacency of the
	// fresh class before them (dedup.go's freshAdjacency); tests pin it.
	adjReused atomic.Int64

	// onTransport, set by tests only, observes every transport as it lands:
	// the seed, the class, the π and edge permutation it was served under,
	// and whether the seed's orbit proposed π (or the search found it). The
	// edge permutation is the compiler's scratch: a hook that keeps it copies.
	onTransport func(seed *absEntry, sig *classSig, pi []topo.NodeID, epi []int32, fromOrbit bool)
}

// builderIDs issues Builder.id.
var builderIDs atomic.Uint64

// New validates the network and constructs its Builder: the SRP graph, the
// per-edge protocol tables and the shared community universes.
func New(net *config.Network) (*Builder, error) {
	if net == nil {
		return nil, fmt.Errorf("build: nil network")
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	b := &Builder{
		Cfg:        net,
		id:         builderIDs.Add(1),
		G:          topo.New(),
		fpIntern:   make(map[string]int32),
		fpByPrefix: make(map[netip.Prefix]string),
		store:      newAbsStore(),
	}
	names := net.RouterNames()
	b.routers = make([]*config.Router, 0, len(names))
	for _, name := range names {
		b.G.AddNode(name)
		r := net.Routers[name]
		b.routers = append(b.routers, r)
		if r.BGP != nil {
			b.hasBGP = true
		}
	}
	for _, l := range net.Links {
		if l.Down {
			continue // administratively down: no SRP adjacency
		}
		b.G.AddLink(b.G.MustLookup(l.A), b.G.MustLookup(l.B))
	}
	b.erasedUniverse = net.MatchedCommunities()
	b.fullUniverse = net.AllCommunities()
	b.matchedSet = make(map[protocols.Community]bool, len(b.erasedUniverse))
	for _, c := range b.erasedUniverse {
		b.matchedSet[c] = true
	}
	b.tab = newEdgeTables(b.G, b.routers, b.matchedSet)
	b.polSpaces[0] = policy.NewSpace(b.fullUniverse)
	b.polSpaces[1] = policy.NewSpace(b.erasedUniverse)
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
	b.internMu.Lock()
	fp, ok := b.fpByPrefix[cls.Prefix]
	b.internMu.Unlock()
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

// edgeMask is a set of edges as a vector aligned with G.Edges(); nil is the
// empty set, so the common "no static applies" case allocates nothing.
type edgeMask []bool

func (m edgeMask) has(i int) bool { return m != nil && m[i] }

// staticMask returns the directed edges (u, v) on which u has a static
// route applicable to the class: its prefix covers the class prefix (equal
// or shorter, so the class's addresses fall under it) and points via v.
//
// Limitation: the class partition (internal/ec) splits the address space on
// originated prefixes only, so a static route strictly finer than its class
// prefix would govern only part of the class's range and is excluded here
// rather than modelled per sub-range. Configurations from the generators
// never contain such statics (theirs are exact originated prefixes or
// defaults); hand-written ones that do will see those statics ignored.
func (b *Builder) staticMask(cls ec.Class) edgeMask {
	var mask edgeMask
	for u, r := range b.routers {
		for _, s := range r.Statics {
			if !staticCovers(s.Prefix, cls.Prefix) {
				continue
			}
			v, ok := b.G.Lookup(s.NextHop)
			if !ok {
				continue
			}
			if i, ok := b.G.EdgeIndex(topo.NodeID(u), v); ok {
				if mask == nil {
					mask = make(edgeMask, len(b.tab.edges))
				}
				mask[i] = true
			}
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
