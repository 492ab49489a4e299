// Package core implements Bonsai's compression algorithm (paper §5,
// Algorithm 1): abstraction refinement over a union-split-find partition of
// the concrete nodes, using canonical BDD edge policies so that
// transfer-function equivalence is a constant-time comparison. Starting from
// the coarsest partition ({d}, V∖{d}), abstract nodes are repeatedly split
// until every group is uniform in its policies toward neighboring groups;
// groups whose routers can assign k > 1 distinct BGP local-preference values
// are then split into k copies (Theorem 4.4's bound), yielding a
// BGP-effective abstraction.
//
// Scheduling is Paige–Tarjan-style: instead of re-sweeping every group to a
// fixpoint, a worklist tracks exactly the groups whose members may have
// changed signature — when a group sheds members, only the groups holding
// live in/out-neighbors of the moved nodes are re-examined. The ∀∃ fixpoint
// is the unique coarsest stable refinement of the starting partition
// (signature equality is preserved under coarsening, so stability is
// schedule-independent), which makes worklist scheduling produce the same
// partition as the naive sweep; the sweep is retained behind findAbstraction's
// flag as the reference implementation and the differential tests in this
// package assert field-identical Abstractions across both. The partition core
// (internal/usf) and the signature context refine without per-call maps or
// slices, so a fresh compression allocates O(groups), not O(sweeps·nodes).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"bonsai/internal/bdd"
	"bonsai/internal/topo"
	"bonsai/internal/usf"
)

// EdgeKey is the canonical signature of one directed SRP edge (u, v) for a
// fixed destination class: the composed BGP policy relation (export at v
// then import at u) as a hash-consed BDD node, plus the scalar parts of the
// transfer function (OSPF cost and area crossing, static route presence)
// and the dataplane ACL verdict, which Bonsai folds into the signature so
// that fwd-equivalence survives compression (paper §6). Two edges have
// equivalent transfer functions iff their EdgeKeys are equal.
type EdgeKey struct {
	BGP       bool     // live BGP session (present and not constant-drop)
	BGPRel    bdd.Node // canonical policy relation; False when !BGP
	IBGP      bool     // session is internal BGP (§6)
	OSPF      bool
	OSPFCost  int
	OSPFCross bool
	Static    bool
	ACLPermit bool
}

// Dead reports that no protocol can carry the destination across the edge;
// dead edges are ignored by refinement and omitted from the abstract graph.
func (k EdgeKey) Dead() bool { return !k.BGP && !k.OSPF && !k.Static }

// EdgeKey is comparable, so refinement does not render it at all: the
// adjacency builder numbers each distinct key with a dense int32 token and
// signatures are built from those tokens (see buildAdjacency).

// Mode selects the abstraction conditions targeted by refinement.
type Mode int

// Modes.
const (
	// ModeEffective computes a ∀∃-abstraction with transfer-equivalence,
	// sufficient for protocols without loop prevention (RIP, OSPF, static).
	ModeEffective Mode = iota
	// ModeBGP computes a BGP-effective abstraction: groups with multiple
	// possible local-preference values are refined against concrete
	// neighbors (∀∀) and split into |prefs| copies (paper §4.3).
	ModeBGP
)

// Options configures FindAbstraction.
type Options struct {
	Mode Mode
	// EdgeKey returns the canonical signature of directed edge (u, v).
	EdgeKey func(u, v topo.NodeID) EdgeKey
	// EdgeKeys, when non-nil, supplies every edge's canonical signature
	// aligned with g.Edges() and takes precedence over EdgeKey: adjacency
	// construction reads the vector instead of calling back per edge.
	// Callers that can batch-derive keys (internal/build resolves each
	// distinct session shape once per class) avoid per-edge policy lookups
	// entirely.
	EdgeKeys []EdgeKey
	// Adjacency, when non-nil, is the class's live adjacency as NewAdjacency
	// built it, and takes precedence over EdgeKeys and EdgeKey: refinement
	// reads it and never writes it, so classes whose edge keys are equal may
	// pass one shared Adjacency (internal/build does, for consecutive fresh
	// classes on one compiler).
	Adjacency *Adjacency
	// Prefs returns |prefs(u)|: the number of distinct BGP local-preference
	// values node u can assign for this destination (≥ 1). nil means 1.
	Prefs func(u topo.NodeID) int
}

// Abstraction is the result of compression: the node partition, the
// topology function f, and the abstract graph with BGP case splitting
// applied.
type Abstraction struct {
	Dest topo.NodeID

	Groups [][]topo.NodeID // group index -> sorted members
	F      []int           // concrete node -> group index

	AbsG    *topo.Graph
	AbsDest topo.NodeID
	// Copies[g] lists the abstract node IDs for group g (one per BGP split
	// case; a single entry for unsplit groups).
	Copies [][]topo.NodeID
	// RepEdge gives, aligned with AbsG.Edges(), a representative concrete
	// edge of each abstract directed edge; by transfer-equivalence any
	// representative defines the abstract transfer function. The values are
	// node pairs, not concrete edge indices: an abstraction adopted across a
	// delta is its predecessor's object, and a link-down shifts the indices
	// of the edges that survive it.
	RepEdge []topo.Edge

	// Iterations counts group refinements until fixpoint (sweep passes for
	// the reference scheduler, worklist pops for the production one); it is
	// diagnostic only and, unlike every other field, scheduling-dependent.
	Iterations int
	// ColorSplits counts groups divided by the greedy self-loop-freedom
	// coloring (phase 2b). First-fit coloring is the one phase of Algorithm 1
	// whose output depends on member order rather than on signatures alone,
	// so cross-class transport (internal/build) only reuses abstractions
	// with ColorSplits == 0.
	ColorSplits int
}

// NumAbstractNodes returns the abstract node count including split copies.
func (a *Abstraction) NumAbstractNodes() int { return a.AbsG.NumNodes() }

// NumAbstractEdges returns the abstract undirected link count.
func (a *Abstraction) NumAbstractEdges() int { return a.AbsG.NumLinks() }

// FindAbstraction runs Algorithm 1 with worklist scheduling and returns the
// resulting abstraction.
func FindAbstraction(g *topo.Graph, dest topo.NodeID, opt Options) *Abstraction {
	return findAbstraction(g, dest, opt, false)
}

// findAbstraction is Algorithm 1 under either scheduler. sweep selects the
// naive sweep-to-fixpoint scheduling — every refinement pass recomputes the
// signature of every multi-member group — which only the tests reach (as
// FindAbstractionSweep): it is the reference the worklist engine is
// differentially tested against. Both produce field-identical Abstractions
// (Iterations aside), because the refinement fixpoint is unique and the
// order-sensitive phases scan groups in canonical order under either
// scheduler.
func findAbstraction(g *topo.Graph, dest topo.NodeID, opt Options, sweep bool) *Abstraction {
	adj := opt.Adjacency
	if adj == nil {
		if opt.EdgeKey == nil && opt.EdgeKeys == nil {
			panic("core: Options.Adjacency, EdgeKeys or EdgeKey is required")
		}
		adj = buildAdjacency(g, opt.EdgeKeys, opt.EdgeKey)
	}
	prefs := opt.Prefs
	if prefs == nil {
		prefs = func(topo.NodeID) int { return 1 }
	}

	p := usf.New(g.NumNodes())
	eng := &engine{p: p, adj: adj, sc: newSigCtx(adj, p), worklist: !sweep}
	p.Split([]int{int(dest)})
	if eng.worklist {
		for _, id := range p.Groups() {
			eng.markDirty(id)
		}
	}

	groupPrefs := func(members []int) int {
		numPrefs := 1
		for _, x := range members {
			if k := prefs(topo.NodeID(x)); k > numPrefs {
				numPrefs = k
			}
		}
		return numPrefs
	}

	iterations := 0
	colorSplits := 0
	for {
		// Phase 1 (∀∃): refine against abstract neighbor groups and edge
		// policies until nothing splits. Applying the stronger ∀∀ keys
		// before this fixpoint would shatter symmetric nodes that are still
		// mixed with dissimilar ones (Algorithm 1 reaches the same state by
		// re-running Refine to fixpoint).
		iterations += eng.phase1()
		before := p.NumGroups()
		// Phase 2a (∀∀, Algorithm 1 line 19): groups that may use several
		// local preferences must be uniformly adjacent to their neighbor
		// groups (modulo self), in both directions: their split copies
		// interconnect, and every copy of a neighbor hears every copy.
		if opt.Mode == ModeBGP {
			eng.phase2a(groupPrefs)
		}
		// Phase 2b (self-loop freedom): an abstract SRP may not contain
		// self loops (§3.1), so a group joined by live internal edges is
		// only valid when BGP case splitting will expand it into
		// interconnected copies. Otherwise divide it so that no two
		// adjacent concrete nodes share an abstract node; greedy coloring
		// keeps the division small.
		colorSplits += eng.phase2b(opt.Mode, groupPrefs)
		if p.NumGroups() == before {
			break
		}
	}

	_, idx := p.Snapshot()
	return Assemble(g, dest, idx, AssembleOptions{
		Mode:        opt.Mode,
		Prefs:       prefs,
		LiveEdges:   adj.live,
		Iterations:  iterations,
		ColorSplits: colorSplits,
	})
}

// engine drives one findAbstraction run: the partition, its signature
// context, and the worklist bookkeeping. With worklist set, a dirty flag per
// group tracks "some member's signature may have changed"; only dirty
// groups are refined, and splits propagate dirtiness to the groups holding
// live neighbors of the moved members. With worklist unset, phase 1 is the
// naive full sweep and the flags stay untouched.
type engine struct {
	p        *usf.Partition
	adj      *Adjacency
	sc       *sigCtx
	worklist bool

	dirty   []bool // per group id: members' signatures may have changed
	queue   []int  // dirty group ids awaiting refinement, FIFO
	qhead   int
	created []int   // scratch: groups created by the last split
	canon   []int   // scratch: canonically ordered group ids for phase 2
	colorOK []int32 // per group id: member count at the last no-split coloring
	color   []int32 // per node: color within the group being colored, else 0
	taken   []int32 // scratch: per color - 1, the last member (index + 1) that saw it on a neighbor
}

// markDirty flags a group for (re-)refinement.
func (e *engine) markDirty(id int) {
	if id >= len(e.dirty) {
		e.dirty = append(e.dirty, make([]bool, id+1-len(e.dirty))...)
	}
	if !e.dirty[id] {
		e.dirty[id] = true
		e.queue = append(e.queue, id)
	}
}

// afterSplit updates the worklist after a split moved the members of the
// created groups out of parent. A node's ∀∃ signature reads the group ids of
// its live in/out-neighbors, so exactly the groups holding a neighbor of a
// moved member may have become unstable: those reached by walking the
// member's live out- and in-lists (markDirty absorbs the repeats). A
// pending dirty mark on the parent extends to the created groups: their
// members inherit whatever staleness the parent had accumulated before the
// split, and a flag left on the parent alone would no longer cover them.
func (e *engine) afterSplit(parent int, created []int) {
	if !e.worklist || len(created) == 0 {
		return
	}
	for _, c := range created {
		for _, m := range e.p.Members(c) {
			for _, les := range [2][]liveEdge{e.adj.out[m], e.adj.in[m]} {
				for _, le := range les {
					e.markDirty(e.p.Find(int(le.nbr)))
				}
			}
		}
	}
	if parent < len(e.dirty) && e.dirty[parent] {
		for _, c := range created {
			e.markDirty(c)
		}
	}
}

// phase1 refines to the ∀∃ fixpoint and returns the number of refinement
// passes (sweep) or group refinements (worklist) performed.
func (e *engine) phase1() int {
	iter := 0
	if !e.worklist {
		for changed := true; changed; {
			iter++
			changed = false
			// Groups() is append-only; capturing the slice header snapshots
			// the groups existing at the start of the pass.
			groups := e.p.Groups()
			for _, id := range groups {
				if len(e.p.Members(id)) <= 1 {
					continue
				}
				if e.sc.refine(id, false) {
					changed = true
				}
			}
		}
		return iter
	}
	for e.qhead < len(e.queue) {
		id := e.queue[e.qhead]
		e.qhead++
		e.dirty[id] = false
		if len(e.p.Members(id)) <= 1 {
			continue
		}
		iter++
		created, _ := e.sc.refineCollect(id, false, e.created[:0])
		e.created = created
		e.afterSplit(id, created)
	}
	e.queue = e.queue[:0]
	e.qhead = 0
	return iter
}

// canonGroups returns the live multi-member groups ordered by smallest
// member. Phases 2a/2b scan in this canonical order because worklist and
// sweep scheduling create groups in different orders, and a ∀∀ signature
// can depend on splits applied to earlier groups of the same pass — with a
// schedule-independent scan order (and signatures that are invariant under
// group renumbering), both schedulers make identical split decisions.
func (e *engine) canonGroups() []int {
	ids := e.canon[:0]
	for _, id := range e.p.Groups() {
		if len(e.p.Members(id)) > 1 {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return e.p.Members(a)[0] - e.p.Members(b)[0]
	})
	e.canon = ids
	return ids
}

// phase2a applies the ∀∀ strengthening to every preference-diverse group.
func (e *engine) phase2a(groupPrefs func([]int) int) {
	for _, id := range e.canonGroups() {
		members := e.p.Members(id)
		if len(members) <= 1 || groupPrefs(members) <= 1 {
			continue
		}
		created, _ := e.sc.refineCollect(id, true, e.created[:0])
		e.created = created
		e.afterSplit(id, created)
	}
}

// phase2b enforces self-loop freedom and returns how many groups the
// coloring divided.
func (e *engine) phase2b(mode Mode, groupPrefs func([]int) int) int {
	splits := 0
	for _, id := range e.canonGroups() {
		members := e.p.Members(id)
		if len(members) <= 1 {
			continue
		}
		if mode == ModeBGP && groupPrefs(members) > 1 {
			continue // copies of a split group may interconnect
		}
		// Coloring is a function of the member set and the (static) live
		// adjacency alone, and members only ever leave a group — equal size
		// means an identical set, so a group that last colored clean at this
		// size cannot split now.
		if id < len(e.colorOK) && int(e.colorOK[id]) == len(members) {
			continue
		}
		if e.colorSplit(id, members) {
			splits++
		} else {
			if id >= len(e.colorOK) {
				e.colorOK = append(e.colorOK, make([]int32, id+1-len(e.colorOK))...)
			}
			e.colorOK[id] = int32(len(members))
		}
	}
	return splits
}

// colorSplit divides a group so that no two live-adjacent members remain
// together, and reports whether it split. Coloring is first-fit in member
// order (deterministic): each member takes the smallest color that no
// already-colored member among its live out- or in-neighbors holds. Colors
// count from 1, so every node outside the group, and every member not yet
// reached, reads 0. One multi-way split keyed by color follows.
func (e *engine) colorSplit(id int, members []int) bool {
	if e.color == nil {
		e.color = make([]int32, e.p.Len())
	}
	taken := e.taken[:0]
	for i, u := range members {
		stamp := int32(i + 1)
		for _, les := range [2][]liveEdge{e.adj.out[u], e.adj.in[u]} {
			for _, le := range les {
				if c := e.color[le.nbr]; c > 0 {
					taken[c-1] = stamp
				}
			}
		}
		c := 0
		for c < len(taken) && taken[c] == stamp {
			c++
		}
		if c == len(taken) {
			taken = append(taken, 0)
		}
		e.color[u] = int32(c + 1)
	}
	e.taken = taken
	split := len(taken) > 1
	if split {
		created, _ := e.p.RefineCollect(id, func(x int) int64 { return int64(e.color[x]) }, e.created[:0])
		e.created = created
		e.afterSplit(id, created)
	}
	// The split permuted the members within their backing array, so this
	// still visits each of them once.
	for _, u := range members {
		e.color[u] = 0
	}
	return split
}

// AssembleOptions configures Assemble: the inputs of the post-refinement
// phases of Algorithm 1 (case splitting and abstract-graph construction).
type AssembleOptions struct {
	Mode Mode
	// Prefs returns |prefs(u)| (≥ 1); nil means 1.
	Prefs func(u topo.NodeID) int
	// LiveEdges holds the directed concrete edges that can carry the
	// destination (the negation of EdgeKey.Dead).
	LiveEdges topo.EdgeSet
	// Iterations and ColorSplits are recorded on the result.
	Iterations  int
	ColorSplits int
	// Targets, if non-nil, is per groupOf id how many distinct groups (itself
	// included) the group's live edges reach, and its scan stops at that
	// count: exact counts change nothing, as each target's first edge is met.
	Targets []int32
}

// Assemble builds the Abstraction of a finished partition: BGP case
// splitting (§4.3), the abstract graph and the representative-edge table.
// groupOf maps each concrete node to a group id under any numbering; groups
// are re-canonicalised (ordered by smallest member) so that equal partitions
// always assemble to identical Abstractions. FindAbstraction uses it as its
// final step, and the cross-class transport of internal/build uses it to
// rebuild a permuted partition exactly as a fresh compression would, its
// scans cut at the seed's exact target counts (AssembleOptions.Targets).
func Assemble(g *topo.Graph, dest topo.NodeID, groupOf []int, opt AssembleOptions) *Abstraction {
	prefs := opt.Prefs
	if prefs == nil {
		prefs = func(topo.NodeID) int { return 1 }
	}

	// Canonicalise the partition: groups ordered by smallest member,
	// members sorted. Node iteration is in increasing id, so a group's
	// first-seen member is its smallest and group order follows it. Every
	// caller numbers groups densely (usf ids are bounded by 2·n, snapshot
	// and transport indices by n), so the remapping is a slice, member
	// counts are known before any group slice is built, and all members
	// share one exact-size backing array.
	n := len(groupOf)
	maxID := 0
	for _, gid := range groupOf {
		if gid > maxID {
			maxID = gid
		}
	}
	remap := make([]int32, maxID+1)
	for i := range remap {
		remap[i] = -1
	}
	idx := make([]int, n)
	ng := 0
	for u := 0; u < n; u++ {
		gi := remap[groupOf[u]]
		if gi < 0 {
			gi = int32(ng)
			remap[groupOf[u]] = gi
			ng++
		}
		idx[u] = int(gi)
	}
	counts := make([]int32, ng)
	for _, gi := range idx {
		counts[gi]++
	}
	memberBuf := make([]topo.NodeID, n)
	groups := make([][]topo.NodeID, ng)
	off := 0
	for gi := 0; gi < ng; gi++ {
		c := int(counts[gi])
		groups[gi] = memberBuf[off : off : off+c]
		off += c
	}
	for u := 0; u < n; u++ {
		groups[idx[u]] = append(groups[idx[u]], topo.NodeID(u))
	}

	edges, live := g.Edges(), opt.LiveEdges
	abs := &Abstraction{
		Dest:        dest,
		F:           idx,
		Groups:      groups,
		Iterations:  opt.Iterations,
		ColorSplits: opt.ColorSplits,
	}

	// BGP case splitting (paper §4.3, Theorem 4.4): each abstract node is
	// duplicated once per possible local-preference value its members can
	// use. The destination is never split.
	splits := make([]int, ng)
	numCopies := 0
	for i, ms := range abs.Groups {
		splits[i] = 1
		if opt.Mode == ModeBGP && abs.F[dest] != i {
			for _, u := range ms {
				if k := prefs(u); k > splits[i] {
					splits[i] = k
				}
			}
			// A solution assigns each concrete node one behavior, so a
			// group never needs more copies than members (and the refined
			// mapping f_r of Theorem 4.5 must be onto the copies).
			if splits[i] > len(ms) {
				splits[i] = len(ms)
			}
		}
		numCopies += splits[i]
	}

	absG := topo.New()
	copyBuf := make([]topo.NodeID, 0, numCopies)
	abs.Copies = make([][]topo.NodeID, ng)
	for i, ms := range abs.Groups {
		rep := g.Name(ms[0])
		start := len(copyBuf)
		for c := 0; c < splits[i]; c++ {
			name := "~" + rep
			if splits[i] > 1 {
				name = fmt.Sprintf("~%s#%d", rep, c)
			}
			copyBuf = append(copyBuf, absG.AddNode(name))
		}
		abs.Copies[i] = copyBuf[start:len(copyBuf):len(copyBuf)]
	}
	abs.AbsDest = abs.Copies[abs.F[dest]][0]

	// Abstract edges: one per pair of groups joined by a live concrete
	// edge, expanded across split copies (copies of the same group connect
	// to each other but never to themselves: SRPs are self-loop-free). A
	// group's members ascend and so does each member's out-span, so the
	// first live edge met toward a target group is that pair's first edge in
	// g.Edges() order: its representative. A source group's few targets are
	// then sorted — AddEdge order is Succ order, which srp.Solve breaks ties
	// by — and copy IDs ascend with the group index, so walking each copy of
	// the source across the sorted targets adds the edges in AbsG.Edges()
	// order: RepEdge grows aligned with it. (Targets are distinct and each
	// group owns its copies, so no edge is added twice.)
	type target struct {
		b   int
		rep topo.Edge
	}
	var targets []target
	reached := make([]int, ng) // reached[b] == a+1: source group a already has its edge into b
	for a, ms := range groups {
		targets = targets[:0]
	scan:
		for _, u := range ms {
			lo, hi := g.OutEdges(u)
			for i := lo; i < hi; i++ {
				if b := idx[edges[i].V]; live.Has(i) && reached[b] != a+1 {
					reached[b] = a + 1
					targets = append(targets, target{b, edges[i]})
					if opt.Targets != nil && int32(len(targets)) == opt.Targets[groupOf[ms[0]]] {
						break scan
					}
				}
			}
		}
		slices.SortFunc(targets, func(x, y target) int { return x.b - y.b })
		for _, ca := range abs.Copies[a] {
			for _, t := range targets {
				for _, cb := range abs.Copies[t.b] {
					if ca != cb {
						absG.AddEdge(ca, cb)
						abs.RepEdge = append(abs.RepEdge, t.rep)
					}
				}
			}
		}
	}
	abs.AbsG = absG
	return abs
}

// liveEdge is a precomputed neighbor entry: the neighbor node and the
// token of the edge's canonical policy key.
type liveEdge struct {
	nbr topo.NodeID
	tok int32
}

// Adjacency is one destination class's live adjacency: per node, the live
// out- and in-edges with their policy tokens, and the set of live edges.
// Refinement signatures, worklist propagation, the
// self-loop-freedom coloring and the final Assemble all read it, and none
// writes it, so it is read-only once built. It is a function of the class's
// edge keys alone: classes whose keys are equal have equal adjacencies.
type Adjacency struct {
	out  [][]liveEdge
	in   [][]liveEdge
	live topo.EdgeSet
}

// NewAdjacency builds the live adjacency of the class whose edge keys, aligned
// with g.Edges(), are keys.
func NewAdjacency(g *topo.Graph, keys []EdgeKey) *Adjacency {
	return buildAdjacency(g, keys, nil)
}

// Live returns the set of live edges (the negation of EdgeKey.Dead). It is
// the Adjacency's own; callers must not modify it.
func (a *Adjacency) Live() topo.EdgeSet { return a.live }

// buildAdjacency derives each edge's canonical key exactly once — from the
// keys vector when supplied, else via the callback — and numbers the
// distinct keys with dense tokens in first-seen order. A class has a handful
// of distinct keys (at most six on the evaluation networks) and consecutive
// edges usually share one, so a token is found by comparing with the
// previous edge's key, then scanning the distinct keys; no key is hashed.
// Per-node lists are carved from two exact-size backing arrays sized by a
// counting pass, so adjacency construction performs O(1) slice allocations.
func buildAdjacency(g *topo.Graph, keys []EdgeKey, edgeKey func(u, v topo.NodeID) EdgeKey) *Adjacency {
	n := g.NumNodes()
	edges := g.Edges()
	live := topo.NewEdgeSet(len(edges))
	a := &Adjacency{
		out:  make([][]liveEdge, n),
		in:   make([][]liveEdge, n),
		live: live,
	}
	toks := make([]int32, len(edges))
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	var distinct []EdgeKey // token -> key
	tok := int32(-1)       // the previous live edge's token
	nLive := 0
	for i, e := range edges {
		var k EdgeKey
		if keys != nil {
			k = keys[i]
		} else {
			k = edgeKey(e.U, e.V)
		}
		if k.Dead() {
			continue
		}
		live.Set(i)
		nLive++
		if tok < 0 || k != distinct[tok] {
			if tok = int32(slices.Index(distinct, k)); tok < 0 {
				tok = int32(len(distinct))
				distinct = append(distinct, k)
			}
		}
		toks[i] = tok
		outDeg[e.U]++
		inDeg[e.V]++
	}
	outBuf := make([]liveEdge, nLive)
	inBuf := make([]liveEdge, nLive)
	oo, io := 0, 0
	for u := 0; u < n; u++ {
		od, id := int(outDeg[u]), int(inDeg[u])
		a.out[u] = outBuf[oo : oo : oo+od]
		a.in[u] = inBuf[io : io : io+id]
		oo += od
		io += id
	}
	for i, e := range edges {
		if !live.Has(i) {
			continue
		}
		a.out[e.U] = append(a.out[e.U], liveEdge{e.V, toks[i]})
		a.in[e.V] = append(a.in[e.V], liveEdge{e.U, toks[i]})
	}
	return a
}

// interner assigns dense int32 IDs to uint64 sequences. Its byte buffer is
// reused across calls, and the map[string] lookup with an in-place
// string([]byte) conversion does not allocate on the hit path, so interning
// an already-seen sequence is allocation-free.
type interner struct {
	ids map[string]int32
	buf []byte
}

func newInterner() *interner { return &interner{ids: make(map[string]int32, 64)} }

func (in *interner) intern(words []uint64) int32 {
	buf := in.buf[:0]
	for _, w := range words {
		buf = append(buf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	in.buf = buf
	if id, ok := in.ids[string(buf)]; ok {
		return id
	}
	id := int32(len(in.ids))
	in.ids[string(buf)] = id
	return id
}

// reset forgets all assignments but keeps the allocated capacity.
func (in *interner) reset() { clear(in.ids) }

// pgPair is one ∀∀ scratch entry: the packed (policy key, neighbor group)
// token and the neighbor itself.
type pgPair struct {
	pg  uint64
	nbr int32
}

// sigCtx computes refinement signatures as interned integers. Signature IDs
// are only comparable within one Refine call (both interners are reset per
// call), which keeps the tables bounded by the group size instead of growing
// with the number of sweeps.
type sigCtx struct {
	adj   *Adjacency
	p     *usf.Partition
	sigs  *interner // sorted token sequences -> signature IDs
	toks  *interner // ∀∀ token payloads -> token IDs
	ws    []uint64  // signature scratch
	tw    []uint64  // token scratch
	pairs []pgPair  // ∀∀ scratch
}

func newSigCtx(adj *Adjacency, p *usf.Partition) *sigCtx {
	return &sigCtx{adj: adj, p: p, sigs: newInterner(), toks: newInterner()}
}

// refine runs one signature-refinement pass over group id.
func (sc *sigCtx) refine(id int, forallForall bool) bool {
	sc.sigs.reset()
	sc.toks.reset()
	return sc.p.Refine(id, func(x int) int64 {
		return int64(sc.signature(topo.NodeID(x), forallForall))
	})
}

// refineCollect is refine, collecting the created group ids into the given
// scratch slice for the worklist's split notifications.
func (sc *sigCtx) refineCollect(id int, forallForall bool, created []int) ([]int, bool) {
	sc.sigs.reset()
	sc.toks.reset()
	return sc.p.RefineCollect(id, func(x int) int64 {
		return int64(sc.signature(topo.NodeID(x), forallForall))
	}, created)
}

// packTok encodes one refinement token as a single word: direction (in/out)
// in the top bit, the interned policy-key (or ∀∀ token) ID in bits 32..62
// and the neighbor group in the low 32 bits.
func packTok(in bool, tok int32, group int) uint64 {
	w := uint64(uint32(tok))<<32 | uint64(uint32(group))
	if in {
		w |= 1 << 63
	}
	return w
}

// signature builds the refinement key of node u: the interned, sorted set of
// (edge policy, neighbor group) tokens over its live out- and in-edges.
// Including in-edges guarantees that all concrete edges mapped to one
// abstract edge share a single policy, which transfer-equivalence requires
// of the edge as a whole.
//
// When the group under refinement may use several local preferences
// (forallForall, Algorithm 1 line 19), every token additionally records
// which members of the neighbor group u has no such edge with, in either
// direction (forallTokens). At the ∀∃ fixpoint every member of a neighbor
// group has an edge with some member of u's group, so equal missing sets
// are empty ones: the group is joined every-to-every to each neighbor group,
// the ∀∀ condition of Figure 4, on its in-edges as on its out-edges
// (docs/audit.md §25). Those variable-length payloads are interned to token
// IDs first, so every token is one word and the signature is a sorted small
// int slice, never a string.
func (sc *sigCtx) signature(u topo.NodeID, forallForall bool) int32 {
	a, p := sc.adj, sc.p
	ws := sc.ws[:0]
	if forallForall {
		ws = sc.forallTokens(ws, u, a.out[u], false)
		ws = sc.forallTokens(ws, u, a.in[u], true)
	} else {
		for _, le := range a.out[u] {
			ws = append(ws, packTok(false, le.tok, p.Find(int(le.nbr))))
		}
		for _, le := range a.in[u] {
			ws = append(ws, packTok(true, le.tok, p.Find(int(le.nbr))))
		}
	}
	slices.Sort(ws)
	ws = slices.Compact(ws)
	sc.ws = ws
	return sc.sigs.intern(ws)
}

// forallTokens appends u's ∀∀ tokens over les, its live edges in one
// direction: one per (policy key, neighbor group), naming the members of
// the neighbor group u has no such edge with.
func (sc *sigCtx) forallTokens(ws []uint64, u topo.NodeID, les []liveEdge, in bool) []uint64 {
	// Sort the packed tokens with their neighbors so each (policy, group)
	// is a contiguous run with the neighbors ascending — no per-call maps.
	p := sc.p
	pairs := sc.pairs[:0]
	for _, le := range les {
		pairs = append(pairs, pgPair{packTok(in, le.tok, p.Find(int(le.nbr))), int32(le.nbr)})
	}
	slices.SortFunc(pairs, func(x, y pgPair) int {
		return cmp.Or(cmp.Compare(x.pg, y.pg), cmp.Compare(x.nbr, y.nbr))
	})
	sc.pairs = pairs
	for s := 0; s < len(pairs); {
		t := s + 1
		for t < len(pairs) && pairs[t].pg == pairs[s].pg {
			t++
		}
		pg := pairs[s].pg
		// Record which members of the neighbor group u has no edge with,
		// always excluding u itself: nodes whose adjacency differs only by
		// self-exclusion (the split copies of §4.3 never self-connect) must
		// share a key. Members and the run are both sorted, so the missing
		// set is a linear merge.
		tw := append(sc.tw[:0], pg, 0)
		j := s
		for _, m := range p.Members(int(uint32(pg))) {
			if m == int(u) {
				continue
			}
			for j < t && int(pairs[j].nbr) < m {
				j++
			}
			if j < t && int(pairs[j].nbr) == m {
				continue
			}
			tw = append(tw, uint64(m))
		}
		if len(tw) == 2 {
			tw[1] = 1 // joined to the whole group
		}
		sc.tw = tw
		ws = append(ws, packTok(in, sc.toks.intern(tw), 0))
		s = t
	}
	return ws
}
