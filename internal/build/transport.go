// Symmetry transport: cross-EC abstraction reuse between destination classes
// related by a network symmetry. The evaluation networks are regular —
// fattree's 72/200/450 classes differ only in *which* edge router originates
// the prefix, not in any behavioral structure — so compressing every class
// independently redoes identical refinement work modulo a relabeling of the
// routers. This file finds that relabeling explicitly.
//
// Given a cached class A and a new class B, transport searches for a
// permutation π of the concrete nodes such that π maps every directed edge
// onto an edge with the same class-independent content label (BGP session
// shape, route-map *content*, OSPF cost/area, redistribution) and the same
// class-dependent bits (prefix-list match outcomes, ACL verdicts, static
// routes, origins, destination). Such a π is an isomorphism between the two
// compression inputs, and every phase of Algorithm 1 that Bonsai runs —
// partition-refinement fixpoints, ∀∀ strengthening, case splitting, and the
// canonical assembly — commutes with it. The one exception is the greedy
// first-fit coloring of phase 2b, whose output can depend on member order;
// abstractions where it fired are therefore never transported
// (Abstraction.ColorSplits > 0). Under that gate, Assemble(π(partition_A))
// is byte-identical to compressing B from scratch, which the property tests
// assert.
//
// Soundness does not rest on the search heuristics: hash collisions in the
// color-refinement pruning can only admit extra candidates, every candidate
// π is verified edge-by-edge against the exact label conditions before use
// (verifyIso), and any failure (or exceeding the search budget) falls back
// to CompressFresh. That sweep is also where the image of every edge is
// found, so it yields the edge permutation the transport then maps the
// seed's liveness through: one pass over the edges per transport. No edge is
// looked up by its endpoints anywhere: the search and the sweep both scatter
// an image's out-span into a per-node table and read it back.
package build

import (
	"math/bits"
	"slices"
	"strconv"

	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// mapContentSig serialises everything the BDD compiler and the prefs
// analysis read from a route map, with prefix-list matches abstracted to a
// positional placeholder (their per-class outcomes live in the fingerprint).
// Two maps with equal content signatures and equal match-outcome bits
// compile to the same relation and yield the same local-preference sets.
func mapContentSig(cache map[rmRef]string, env *policy.Env, name string) string {
	if name == "" {
		return "-"
	}
	ref := rmRef{env: env, name: name}
	if s, ok := cache[ref]; ok {
		return s
	}
	rm := env.RouteMaps[name]
	var b []byte
	if rm == nil {
		b = append(b, '?')
		b = append(b, name...)
	} else {
		for ci := range rm.Clauses {
			cl := &rm.Clauses[ci]
			b = append(b, ';')
			if cl.Action == policy.Permit {
				b = append(b, 'p')
			} else {
				b = append(b, 'd')
			}
			for _, m := range cl.Matches {
				switch m.Kind {
				case policy.MatchPrefix:
					b = append(b, 'P') // outcome supplied per class
				case policy.MatchCommunity:
					b = append(b, 'C')
					if l := env.CommunityLists[m.Arg]; l != nil {
						for _, c := range l.Communities {
							b = strconv.AppendUint(b, uint64(c), 10)
							b = append(b, ',')
						}
					} else {
						b = append(b, '?')
						b = append(b, m.Arg...)
					}
				}
			}
			b = append(b, ':')
			for _, s := range cl.Sets {
				b = strconv.AppendInt(b, int64(s.Kind), 10)
				b = append(b, '=')
				b = strconv.AppendUint(b, uint64(s.Value), 10)
				b = append(b, '+')
				b = strconv.AppendUint(b, uint64(s.Comm), 10)
			}
		}
	}
	s := string(b)
	cache[ref] = s
	return s
}

// classSig carries every class-dependent input of compression in comparable
// form: the identity fingerprint plus the per-object tables transport needs.
type classSig struct {
	fp      string // identity fingerprint (absCache key)
	histo   uint64 // relabeling-invariant edge-label histogram hash
	dest    topo.NodeID
	origin  []bool   // per node: origin of the class
	fpIDs   []int32  // per sigRMs: interned match-outcome string
	aclV    []bool   // per sigACLs: verdict for the class prefix
	statics edgeMask // edges an applicable static rides
	el      []uint64 // per edge: hashed full label folded with its reverse edge's (seeds only, once stored)
	colors  []uint64 // per node: iterated neighborhood colors (lazy; seeds only, once stored)
	colHash uint64   // commutative hash of the color multiset
}

// classSignature computes the class's fingerprint and transport tables.
// Cost is O(route maps + ACLs + statics + E) with no BDD work.
func (b *Builder) classSignature(cls ec.Class) (*classSig, error) {
	dest, err := b.destOf(cls)
	if err != nil {
		return nil, err
	}
	t := b.tab
	s := &classSig{
		dest:    dest,
		origin:  make([]bool, b.G.NumNodes()),
		fpIDs:   make([]int32, len(t.sigRMs)),
		aclV:    make([]bool, len(t.sigACLs)),
		statics: b.staticMask(cls),
	}
	fp := make([]byte, 0, 64+2*len(t.sigRMs)+len(t.sigACLs))
	fp = strconv.AppendInt(fp, int64(dest), 10)
	fp = append(fp, '|')
	for _, o := range cls.Origins {
		fp = append(fp, o...)
		fp = append(fp, ',')
		if id, ok := b.G.Lookup(o); ok {
			s.origin[id] = true
		}
	}
	fp = append(fp, '|')
	for i, on := range s.statics {
		if on {
			fp = strconv.AppendInt(fp, int64(i), 10)
			fp = append(fp, ',')
		}
	}
	fp = append(fp, '|')
	// Match-outcome strings per route map, interned Builder-wide so that
	// transport can compare them across classes as ints. The prefix-list
	// matching runs outside the lock (concurrent workers signature-compute
	// in parallel); only the intern-table access is a critical section.
	var bits []byte
	offs := make([]int, len(t.sigRMs)+1)
	for i := range t.sigRMs {
		if !t.rmKnown[i] {
			bits = append(bits, '?')
		}
		for _, l := range t.rmLists[i] {
			if l != nil && l.Matches(cls.Prefix) {
				bits = append(bits, '1')
			} else {
				bits = append(bits, '0')
			}
		}
		offs[i+1] = len(bits)
	}
	b.internMu.Lock()
	for i := range t.sigRMs {
		key := bits[offs[i]:offs[i+1]]
		id, ok := b.fpIntern[string(key)]
		if !ok {
			id = int32(len(b.fpIntern))
			b.fpIntern[string(key)] = id
		}
		s.fpIDs[i] = id
	}
	b.internMu.Unlock()
	for _, id := range s.fpIDs {
		fp = strconv.AppendInt(fp, int64(id), 10)
		fp = append(fp, ';')
	}
	fp = append(fp, '|')
	for i, a := range t.sigACLs {
		s.aclV[i] = a.env.ACLPermits(a.name, cls.Prefix)
		fp = appendFlag(fp, s.aclV[i])
	}
	s.fp = string(fp)
	// Memoize prefix -> fingerprint for the Builder's lifetime: the mapping
	// is deterministic, so warm-hit paths and the worker pool's ordering key
	// never need to recompute a signature for a class seen before — even
	// after its store entry is evicted.
	b.internMu.Lock()
	b.fpByPrefix[cls.Prefix] = s.fp
	b.internMu.Unlock()
	return s, nil
}

// ensureLabels computes (once per classSig) the per-edge label vector and
// its relabeling-invariant histogram hash. Deferred off the identity-hit
// path: cache hits only read sig.fp, so the O(E) pass runs on misses alone.
// A label starts as the edge's mixed content word; only edges a route map,
// an ACL or a static can reach are rehashed, and the histogram moves by each
// patch, so it is off a sum over every label by a class-independent constant.
// Each label is then folded with its reverse's, el[i] ^ rot(el[rev[i]]): one
// word per edge that the colours and the search read for both directions.
// Like ensureColors, the lazy write is unsynchronised — callers must only
// invoke it on a classSig not yet shared with other goroutines.
func (b *Builder) ensureLabels(s *classSig) {
	if s.el != nil {
		return
	}
	t := b.tab
	el := slices.Clone(t.content)
	// Addition is commutative, so summing the mixed labels is invariant
	// under any edge reordering — no sort needed.
	h := uint64(14695981039346656037)
	patch := func(i int) {
		w := t.edgeLabel(s, int32(i))
		h += mix64(w) - mix64(el[i])
		el[i] = w
	}
	for i := range el {
		if t.expRM[i]&t.impRM[i]&t.aclIdx[i] >= 0 { // any of the three is present
			patch(i)
		}
	}
	for i, on := range s.statics {
		if on {
			patch(i)
		}
	}
	for i, j := range t.rev {
		if int(j) > i {
			out, in := el[i], el[j]
			el[i], el[j] = out^bits.RotateLeft64(in, 31), in^bits.RotateLeft64(out, 31)
		}
	}
	s.el = el
	norig := 0
	for _, o := range s.origin {
		if o {
			norig++
		}
	}
	s.histo = mix64(h ^ uint64(norig))
}

// edgeLabel hashes the full (content + class-dependent) label of edge index
// i under class signature s into one word. Used for pruning and histograms;
// exact comparisons go through edgeEq.
func (t *edgeTables) edgeLabel(s *classSig, i int32) uint64 {
	w := t.content[i]
	if rm := t.expRM[i]; rm >= 0 {
		w = mix64(w ^ (uint64(uint32(s.fpIDs[rm])) + 0x9e3779b97f4a7c15))
	}
	if rm := t.impRM[i]; rm >= 0 {
		w = mix64(w ^ (uint64(uint32(s.fpIDs[rm])) + 0xc2b2ae3d27d4eb4f))
	}
	if a := t.aclIdx[i]; a >= 0 && !s.aclV[a] {
		w = mix64(w ^ 0x165667b19e3779f9)
	}
	if s.statics.has(int(i)) {
		w = mix64(w ^ 0x27d4eb2f165667c5)
	}
	return w
}

// mix64 is splitmix64's finaliser: a fast, well-distributed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// edgeEq reports whether edge e under class sa carries exactly the same
// label as edge f under class sb — the per-edge transport condition.
func (t *edgeTables) edgeEq(sa, sb *classSig, e, f int32) bool {
	if t.content[e] != t.content[f] {
		return false
	}
	rmE, rmF := t.expRM[e], t.expRM[f]
	if (rmE < 0) != (rmF < 0) || (rmE >= 0 && sa.fpIDs[rmE] != sb.fpIDs[rmF]) {
		return false
	}
	rmE, rmF = t.impRM[e], t.impRM[f]
	if (rmE < 0) != (rmF < 0) || (rmE >= 0 && sa.fpIDs[rmE] != sb.fpIDs[rmF]) {
		return false
	}
	aclA, aclB := true, true
	if a := t.aclIdx[e]; a >= 0 {
		aclA = sa.aclV[a]
	}
	if a := t.aclIdx[f]; a >= 0 {
		aclB = sb.aclV[a]
	}
	if aclA != aclB {
		return false
	}
	return sa.statics.has(int(e)) == sb.statics.has(int(f))
}

// colorRounds bounds the color-refinement preprocessing. Three rounds
// separate structural roles in the evaluation networks; under-refinement
// only enlarges candidate sets (the search's forward checking and the final
// sweep keep wrong permutations out), so fewer rounds trade search effort
// for a cheaper per-class preprocessing pass.
const colorRounds = 3

// ensureColors computes (once per classSig) iterated neighborhood colors:
// hash-based 1-WL refinement over the labeled graph with the destination
// individualised. Colors are plain hashes, so they are comparable across
// classes without shared state and cacheable per entry. The lazy write is
// not synchronised: callers must only invoke this on a classSig that no
// other goroutine can reach (Compress precomputes colors on fresh entries
// before publishing them as transport seeds).
func (b *Builder) ensureColors(s *classSig) []uint64 {
	if s.colors != nil {
		return s.colors
	}
	b.ensureLabels(s)
	t := b.tab
	n := b.G.NumNodes()
	col := make([]uint64, n)
	for u := 0; u < n; u++ {
		w := uint64(0)
		if topo.NodeID(u) == s.dest {
			w |= 1
		}
		if s.origin[u] {
			w |= 2
		}
		col[u] = mix64(w + 0x9e3779b97f4a7c15)
	}
	next := make([]uint64, n)
	for r := 0; r < colorRounds; r++ {
		for u, c := range col {
			col[u] = mix64(c)
		}
		for u := 0; u < n; u++ {
			// Commutative combine (sum of mixed tuples) keeps the color a
			// multiset invariant of the labeled neighborhood without sorting.
			// One mix per edge: the neighbour's color is mixed once per round
			// above, and the folded label covers both directions (the rotation
			// in ensureLabels keeps (out, in) apart from (in, out)).
			h := col[u]
			lo, hi := t.out(topo.NodeID(u))
			for i := lo; i < hi; i++ {
				h += mix64(s.el[i] ^ col[t.edges[i].V])
			}
			next[u] = mix64(h)
		}
		col, next = next, col
	}
	h := uint64(0)
	for _, c := range col {
		h += mix64(c)
	}
	s.colHash = h
	s.colors = col
	return col
}

// isoBudgetFactor bounds the backtracking search to factor×V node
// placements (including undone ones) before giving up.
const isoBudgetFactor = 64

// findIso searches for a node permutation π with π(sa.dest) = sb.dest that
// maps every directed edge onto an edge with an equal label (edgeEq) and
// preserves the origin marking, and returns it with the edge permutation it
// induces (verifyIso). Returns nil if none is found within budget. The result
// is whatever verifyIso accepts, so heuristic failure or hash collisions are
// only missed optimisations, never wrong answers.
func (b *Builder) findIso(sa, sb *classSig) (pi []topo.NodeID, epi []int32) {
	t := b.tab
	n := b.G.NumNodes()
	colA := b.ensureColors(sa)
	colB := b.ensureColors(sb)
	// Color-multiset check (commutative hash): a mismatch means no π can
	// exist; a collision only admits a doomed search that the forward
	// checking rejects.
	if sa.colHash != sb.colHash {
		return nil, nil
	}
	pi = make([]topo.NodeID, n)
	rev := make([]topo.NodeID, n)
	parent := make([]topo.NodeID, n) // -1 until the BFS reaches a node
	for i := range pi {
		pi[i], rev[i], parent[i] = -1, -1, -1
	}
	// BFS order from the destination, which is its own parent; every node
	// processed after its parent so candidates are constrained by at least
	// one mapped neighbor.
	order := make([]topo.NodeID, 0, n)
	order = append(order, sa.dest)
	parent[sa.dest] = sa.dest
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		lo, hi := t.out(u)
		for _, e := range t.edges[lo:hi] {
			if v := e.V; parent[v] < 0 {
				parent[v] = u
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return nil, nil // disconnected from dest; transport not attempted
	}
	budget := isoBudgetFactor * n
	steps := 0
	// compatible checks u→w against all already-mapped neighbors of u: each
	// image must be w's neighbour (w's out-span is scattered into at, then
	// cleared) over an edge with an equal folded label word. Equal labels give
	// equal words, so this never refuses what verifyIso would accept, and a
	// hash collision only admits a π that verifyIso refuses.
	at := make([]int32, n)
	compatible := func(u, w topo.NodeID) bool {
		if colA[u] != colB[w] || sa.origin[u] != sb.origin[w] {
			return false
		}
		wlo, whi := t.out(w)
		for j := wlo; j < whi; j++ {
			at[t.edges[j].V] = j + 1
		}
		ok := true
		lo, hi := t.out(u)
		for i := lo; i < hi && ok; i++ {
			if pv := pi[t.edges[i].V]; pv >= 0 {
				j := at[pv] - 1
				ok = j >= 0 && sa.el[i] == sb.el[j]
			}
		}
		for j := wlo; j < whi; j++ {
			at[t.edges[j].V] = 0
		}
		return ok
	}
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == n {
			return true
		}
		u := order[i]
		// Candidates: the destination's image is fixed; any other node maps
		// to a neighbour of its BFS parent's image.
		cands := []topo.Edge{{V: sb.dest}}
		if u != sa.dest {
			lo, hi := t.out(pi[parent[u]])
			cands = t.edges[lo:hi]
		}
		for _, c := range cands {
			w := c.V
			if rev[w] >= 0 || !compatible(u, w) {
				continue
			}
			steps++
			if steps > budget {
				return false
			}
			pi[u], rev[w] = w, u
			if dfs(i + 1) {
				return true
			}
			pi[u], rev[w] = -1, -1
			if steps > budget {
				return false
			}
		}
		return false
	}
	if !dfs(0) {
		return nil, nil
	}
	epi, ok := b.verifyIso(sa, sb, pi)
	if !ok {
		return nil, nil
	}
	return pi, epi
}

// verifyIso is the one thing transport's soundness rests on; the search
// above only proposes. It accepts π iff π is a bijection that fixes the
// destination, preserves the origin marking and maps every directed edge
// onto an edge carrying exactly the same label — edgeEq on the Builder's
// tables, no hashes — and returns the edge permutation π induces: epi[i] is
// the index of (π(U), π(V)) for edge i. No edge is searched for: π(u)'s
// out-span is scattered into a per-node slot table stamped with u, and each
// out-edge (u, v) reads its image's index at π(v); a missing stamp there is
// a non-edge and refuses π.
func (b *Builder) verifyIso(sa, sb *classSig, pi []topo.NodeID) (epi []int32, ok bool) {
	t := b.tab
	if pi[sa.dest] != sb.dest {
		return nil, false
	}
	slot := make([]int32, len(pi))  // slot[x]: index of edge (π(u), x), valid while stamp[x] is u's mark
	stamp := make([]int32, len(pi)) // first -1 once x is an image, so a second router landing on it shows
	for u, w := range pi {
		if stamp[w] != 0 || sa.origin[u] != sb.origin[w] {
			return nil, false
		}
		stamp[w] = -1
	}
	epi = make([]int32, len(t.edges))
	for u, w := range pi {
		mark := int32(u + 1)
		lo, hi := t.out(w)
		for j := lo; j < hi; j++ {
			x := t.edges[j].V
			slot[x], stamp[x] = j, mark
		}
		lo, hi = t.out(topo.NodeID(u))
		for i := lo; i < hi; i++ {
			x := pi[t.edges[i].V]
			if stamp[x] != mark || !t.edgeEq(sa, sb, i, slot[x]) {
				return nil, false
			}
			epi[i] = slot[x]
		}
	}
	return epi, true
}

// transportAbs rebuilds class sig's abstraction from a cached entry by
// mapping its partition, prefs and liveness through π — liveness through the
// edge permutation verifyIso returned — and re-running the canonical
// assembly. It returns the abstraction with the mapped live-edge vector
// (aligned with b.G.Edges()) and prefs vector, which let the entry survive an
// incremental update (adopt.go) without a policy re-scan. The result is
// exactly what CompressFresh would return for the class, because every phase
// before assembly commutes with π and the cached entry is gated on
// ColorSplits == 0.
func (b *Builder) transportAbs(cand *absEntry, sig *classSig, pi []topo.NodeID, epi []int32) (*core.Abstraction, []bool, []int) {
	A := cand.abs
	groupOf := make([]int, len(pi))
	prefs := make([]int, len(pi))
	for u, w := range pi {
		groupOf[w] = A.F[u]
		prefs[w] = cand.prefs[u]
	}
	live := make([]bool, len(epi))
	for i, f := range epi {
		live[f] = cand.live[i]
	}
	mode := core.ModeEffective
	if b.hasBGP {
		mode = core.ModeBGP
	}
	abs := core.Assemble(b.G, sig.dest, groupOf, core.AssembleOptions{
		Mode:        mode,
		Prefs:       func(u topo.NodeID) int { return prefs[u] },
		LiveEdges:   live, // t.edges shares g.Edges() order
		Iterations:  A.Iterations,
		ColorSplits: 0,
	})
	return abs, live, prefs
}
