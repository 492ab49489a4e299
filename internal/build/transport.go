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
// shape, route-map *content* with unused tags erased, OSPF cost/area,
// redistribution) and the same class-dependent bits (prefix-list match
// outcomes, ACL verdicts, static routes, origins, destination). Such a π is
// an isomorphism between the two compression inputs, and every phase of
// Algorithm 1 that Bonsai runs — partition-refinement fixpoints, ∀∀
// strengthening, case splitting, and the canonical assembly — commutes with
// it. The one exception is the greedy first-fit coloring of phase 2b, whose
// output can depend on member order; abstractions where it fired are
// therefore never transported (Abstraction.ColorSplits > 0). Under that
// gate, Assemble(π(partition_A)) is byte-identical to compressing B from
// scratch, which the property tests assert.
//
// The content label renders each route map as the erasing compiler sees it
// (mapContentSig): a community that no route map matches gets no BDD
// variable there (§8's unused-tag erasure), so adding or deleting it is a
// no-op and is left out of the label. Labels therefore describe relations
// only on a compiler over the Builder's own erased universe, and Compress
// transports only on such a compiler (Builder.NewCompiler(true) on a Builder
// with the same matched communities).
//
// One word picks the candidates: a class's colour key, the multiset hash of
// three rounds of colour refinement with its destination individualised
// (colorKey), computed once per signature. Seeds are indexed by it, and a
// class searches only from the seeds that share it. The per-node colours
// behind the key prune the search: a router is tried only on routers of its
// own colour. A pinned seed keeps its colour vector; every other signature
// drops it. The search itself compares edges exactly, with edgeEq.
// Soundness does not rest on the key: a collision only admits a doomed
// search, every candidate π is verified against the exact label conditions
// before use (verifyIso, verifyComposed), and any failure (or exceeding the
// search budget) falls back to CompressFresh. That sweep is also where the
// image of every edge is found, so it yields the edge permutation the
// transport then maps the seed's liveness through: one pass over the edges
// per transport. No edge is looked up by its endpoints anywhere: the search
// and the sweep both scatter an image's out-span into a per-node table and
// read it back.
//
// Per edge, a transport pays little. edgeEq reads one record per edge
// (edgeRec). The sweep's tables and edge permutation, the key's label buffer
// and the search's vectors are the compiler's scratch (isoScratch), so a
// transport allocates only what its entry keeps. A seed counts each group's
// targets once (seedTargets), and the transported assembly stops a group's
// scan at that count.
//
// Most searches need not run at all. Each seed keeps an orbit: the π's its
// searched transports were accepted under, as generators, and a Schreier
// vector over the nodes rooted at its destination (the first half of
// Schreier–Sims). A class whose destination the orbit reaches gets the
// product of the generators along the vector's path as its π, with no colour
// key and no search. A composed π only proposes too: verifyComposed decides,
// reading labels only where classes can differ, and a refusal falls through
// to the key, the search and CompressFresh. On Fattree(20) 18 generators
// serve all 199 transports, 181 of them without a search.
package build

import (
	"math/bits"
	"slices"
	"strconv"

	"bonsai/internal/core"
	"bonsai/internal/ec"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
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
// With matched non-nil it renders the map as a compiler over that universe
// sees it: a community added or deleted outside matched is left out, since
// the compiler has no variable for it and skips the set. Two maps with equal
// content signatures and equal match-outcome bits compile to the same
// relation (on any compiler when matched is nil, on one over matched
// otherwise) and yield the same local-preference sets.
func mapContentSig(cache map[rmRef]string, env *policy.Env, name string, matched map[protocols.Community]bool) string {
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
				if matched != nil && (s.Kind == policy.AddCommunity || s.Kind == policy.DeleteCommunity) && !matched[s.Comm] {
					continue // a tag nothing matches
				}
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
	pol     int    // fp[pol:] is the policy part: statics | match outcomes | ACL verdicts
	dest    topo.NodeID
	origin  []bool       // per node: origin of the class
	fpIDs   []int32      // per sigRMs: interned match-outcome string for a matchRMs entry, 0 for any other
	aclV    []bool       // per sigACLs: verdict for the class prefix
	statics topo.EdgeSet // edges an applicable static rides
	nStatic int          // edges in statics: a π verifyIso accepts maps them onto the other class's
	key     uint64       // colorKey: the isoIndex bucket, set while the signature is private
	col     []uint64     // colorKey's per-node colours: findIso's filter, kept by pinned seeds only
}

// classSignature computes the class's fingerprint and transport tables.
// Only the route maps with a prefix match (matchRMs) are evaluated and
// written into the fingerprint: any other map compiles to one relation for
// every prefix, so its fpIDs slot keeps the class-independent 0. That 0 can
// equal an interned id, but edgeEq compares two slots only under equal
// content labels, and a label's 'P' marks tell the two kinds of map apart.
// Cost is O(prefix-matching maps + ACLs + statics + E) with no BDD work.
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
	fp := make([]byte, 0, 64+2*len(t.matchRMs)+len(t.sigACLs))
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
	s.pol = len(fp)
	for i := range s.statics.All() {
		fp = strconv.AppendInt(fp, int64(i), 10)
		fp = append(fp, ',')
		s.nStatic++
	}
	fp = append(fp, '|')
	// Match-outcome strings per route map, interned in the Builder's table
	// (shared with adopting successors) so that transport can compare them
	// across classes as ints. The prefix-list matching runs outside the lock
	// (concurrent workers signature-compute in parallel); only the
	// intern-table access is a critical section.
	var bits []byte
	offs := make([]int, len(t.matchRMs)+1)
	for k, i := range t.matchRMs {
		for _, l := range t.rmLists[i] {
			if l != nil && l.Matches(cls.Prefix) {
				bits = append(bits, '1')
			} else {
				bits = append(bits, '0')
			}
		}
		offs[k+1] = len(bits)
	}
	in := b.intern
	in.mu.Lock()
	for k, i := range t.matchRMs {
		key := bits[offs[k]:offs[k+1]]
		id, ok := in.ids[string(key)]
		if !ok {
			id = int32(len(in.ids))
			in.ids[string(key)] = id
		}
		s.fpIDs[i] = id
	}
	in.mu.Unlock()
	for _, i := range t.matchRMs {
		fp = strconv.AppendInt(fp, int64(s.fpIDs[i]), 10)
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
	b.intern.mu.Lock()
	b.fpByPrefix[cls.Prefix] = s.fp
	b.intern.mu.Unlock()
	return s, nil
}

// edgeLabel hashes the full (content + class-dependent) label of edge index
// i under class signature s into one word. Only the colour key reads it;
// exact comparisons go through edgeEq.
func (t *edgeTables) edgeLabel(s *classSig, i int32) uint64 {
	r := &t.recs[i]
	w := r.content
	if rm := r.expRM; rm >= 0 {
		w = mix64(w ^ (uint64(uint32(s.fpIDs[rm])) + 0x9e3779b97f4a7c15))
	}
	if rm := r.impRM; rm >= 0 {
		w = mix64(w ^ (uint64(uint32(s.fpIDs[rm])) + 0xc2b2ae3d27d4eb4f))
	}
	if a := r.acl; a >= 0 && !s.aclV[a] {
		w = mix64(w ^ 0x165667b19e3779f9)
	}
	if s.statics.Has(int(i)) {
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

// isoScratch is one compiler's transport working set. It lives on the
// compiler's cache, owned by the compiler's goroutine, so it needs no lock;
// each user resizes (fit) and initialises what it reads.
type isoScratch struct {
	slot, stamp, epi, at []int32
	rev, parent, order   []topo.NodeID
	pi                   []topo.NodeID // orbit.compose's product
	path                 []int32       // orbit.compose's generator indices
	el                   []uint64
	groupOf              []int
}

// fit returns buf at length n with stale contents, reallocating if short.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// edgeEq reports whether edge e under class sa carries exactly the same
// label as edge f under class sb — the per-edge transport condition.
func (t *edgeTables) edgeEq(sa, sb *classSig, e, f int32) bool {
	re, rf := &t.recs[e], &t.recs[f]
	if re.content != rf.content {
		return false
	}
	rmE, rmF := re.expRM, rf.expRM
	if (rmE < 0) != (rmF < 0) || (rmE >= 0 && sa.fpIDs[rmE] != sb.fpIDs[rmF]) {
		return false
	}
	rmE, rmF = re.impRM, rf.impRM
	if (rmE < 0) != (rmF < 0) || (rmE >= 0 && sa.fpIDs[rmE] != sb.fpIDs[rmF]) {
		return false
	}
	aclA, aclB := true, true
	if a := re.acl; a >= 0 {
		aclA = sa.aclV[a]
	}
	if a := rf.acl; a >= 0 {
		aclB = sb.aclV[a]
	}
	if aclA != aclB {
		return false
	}
	return sa.statics.Has(int(e)) == sb.statics.Has(int(f))
}

// colorRounds bounds the colour refinement behind the colour key. Three
// rounds separate structural roles in the evaluation networks;
// under-refinement only lets classes of different roles share a key, so a
// search starts from a seed it cannot map (the forward checks and the final
// sweep keep wrong permutations out), and fewer rounds trade doomed searches
// for a cheaper key.
const colorRounds = 3

// colorKey computes a class's colour key: the multiset hash of iterated
// neighbourhood colours, hash-based 1-WL over the labelled graph with the
// destination individualised. It is invariant under relabelling the routers,
// so a π can relate two classes only if their keys are equal, and the store
// indexes its transport seeds by it. It also returns the colours: each is
// invariant too, so a π can map u onto w only if their colours are equal,
// and findIso tries no other candidate. It runs once per signature, on a
// miss that no orbit served (or when a store load installs a seed).
//
// A label starts as the edge's mixed content word; only edges a route map,
// an ACL or a static can reach are rehashed. Each label is then folded with
// its reverse's, el[i] ^ rot(el[rev[i]]): one word per edge that covers
// both directions, the rotation keeping (out, in) apart from (in, out).
func (b *Builder) colorKey(sc *isoScratch, s *classSig) (key uint64, col []uint64) {
	t := b.tab
	sc.el = fit(sc.el, len(t.recs))
	el := sc.el
	for i, r := range t.recs {
		el[i] = r.content
		if r.expRM&r.impRM&r.acl >= 0 || s.statics.Has(i) { // a route map, an ACL or a static
			el[i] = t.edgeLabel(s, int32(i))
		}
	}
	for i, j := range t.rev {
		if int(j) > i {
			out, in := el[i], el[j]
			el[i], el[j] = out^bits.RotateLeft64(in, 31), in^bits.RotateLeft64(out, 31)
		}
	}
	n := b.G.NumNodes()
	col = make([]uint64, n)
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
			// Commutative combine (sum of mixed tuples) keeps the colour a
			// multiset invariant of the labelled neighbourhood without
			// sorting. One mix per edge: the neighbour's colour is mixed once
			// per round above, and the folded label covers both directions.
			h := col[u]
			lo, hi := t.out(topo.NodeID(u))
			for i := lo; i < hi; i++ {
				h += mix64(el[i] ^ col[t.edges[i].V])
			}
			next[u] = mix64(h)
		}
		col, next = next, col
	}
	for _, c := range col {
		key += mix64(c)
	}
	return key, col
}

// isoBudgetFactor bounds the backtracking search to factor×V node
// placements (including undone ones) before giving up.
const isoBudgetFactor = 64

// findIso searches for a node permutation π with π(sa.dest) = sb.dest that
// maps every directed edge onto an edge with an equal label (edgeEq) and
// preserves the origin marking, and returns it with the edge permutation it
// induces (verifyIso). Returns nil if none is found within budget. Both
// signatures carry their colours (colorKey), and u is tried only on the w
// whose colour equals its own: every π verifyIso accepts maps each router
// onto one of its colour, so the filter drops only candidates that no
// completion of the partial π could keep, and the search, still first-fit in
// the same order, finds the π the unfiltered search would, in fewer steps. It
// writes nothing on either signature; the colour key chose the pair, and the
// result is whatever verifyIso accepts, so a heuristic failure or a key
// collision is only a missed optimisation, never a wrong answer.
func (b *Builder) findIso(sc *isoScratch, sa, sb *classSig) (pi []topo.NodeID, epi []int32) {
	t := b.tab
	n := b.G.NumNodes()
	pi = make([]topo.NodeID, n)
	sc.rev, sc.parent, sc.order, sc.at = fit(sc.rev, n), fit(sc.parent, n), fit(sc.order, n), fit(sc.at, n)
	rev, parent, at := sc.rev, sc.parent, sc.at // parent: -1 until the BFS reaches a node
	for i := range pi {
		pi[i], rev[i], parent[i], at[i] = -1, -1, -1, 0
	}
	// BFS order from the destination, which is its own parent; every node
	// processed after its parent so candidates are constrained by at least
	// one mapped neighbor.
	order := append(sc.order[:0], sa.dest)
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
	// cleared) over an edge whose label, and whose reverse's, edgeEq finds
	// equal. These are verifyIso's own conditions on the edges between placed
	// nodes, so the search never refuses what verifyIso would accept.
	compatible := func(u, w topo.NodeID) bool {
		if sa.origin[u] != sb.origin[w] {
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
				ok = j >= 0 && t.edgeEq(sa, sb, i, j) && t.edgeEq(sa, sb, t.rev[i], t.rev[j])
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
			if rev[w] >= 0 || sb.col[w] != sa.col[u] || !compatible(u, w) {
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
	epi, ok := b.verifyIso(sc, sa, sb, pi)
	if !ok {
		return nil, nil
	}
	return pi, epi
}

// verifyIso is what a searched π's soundness rests on; the search above
// only proposes. It accepts π iff the sweep does and every edge maps onto
// one with exactly the same label (edgeEq on the Builder's tables, no hashes).
func (b *Builder) verifyIso(sc *isoScratch, sa, sb *classSig, pi []topo.NodeID) (epi []int32, ok bool) {
	if epi, ok = b.sweepIso(sc, sa, sb, pi); ok {
		for i, j := range epi {
			if !b.tab.edgeEq(sa, sb, int32(i), j) {
				return nil, false
			}
		}
	}
	return epi, ok
}

// verifyComposed decides the π that orbit o of seed class sa proposes for
// class sb as verifyIso would, and returns it with its edge permutation. Each
// generator passed verifyIso here, so π keeps every content label, and with
// it whether an edge's maps match a prefix. It checks (b) equal static
// counts, before composing π, then the sweep (a: destination, origins), sa's
// statics onto sb's, (c, d) edgeEq on the guarded edges, and (d) as many ACLs
// denying sa as sb: π maps those denying sa onto ones denying sb, so no plain
// edge lands on one that denies sb, though π moves ACLs
// (TestVerifiedPermutationsMoveACLs).
func (b *Builder) verifyComposed(sc *isoScratch, o *orbit, sa, sb *classSig) (pi []topo.NodeID, epi []int32, ok bool) {
	t := b.tab
	if sa.nStatic != sb.nStatic {
		return nil, nil, false
	}
	pi = o.compose(sc, sb.dest)
	if epi, ok = b.sweepIso(sc, sa, sb, pi); !ok {
		return nil, nil, false
	}
	for i := range sa.statics.All() {
		if !sb.statics.Has(int(epi[i])) {
			return nil, nil, false
		}
	}
	denied := 0 // ACLs denying sa less those denying sb
	for i := range t.guarded.All() {
		if !t.edgeEq(sa, sb, int32(i), epi[i]) {
			return nil, nil, false
		}
		if a := t.recs[i].acl; a >= 0 && !sa.aclV[a] {
			denied++
		}
		if a := t.recs[i].acl; a >= 0 && !sb.aclV[a] {
			denied--
		}
	}
	if denied != 0 {
		return nil, nil, false
	}
	return pi, epi, true
}

// sweepIso accepts π iff π is a bijection that fixes the destination,
// preserves the origin marking and maps every directed edge onto an edge,
// and returns the edge permutation π induces: epi[i] is the index of
// (π(U), π(V)) for edge i. No edge is searched for: π(u)'s out-span is
// scattered into a per-node slot table stamped with u, and each out-edge
// (u, v) reads its image's index at π(v); a missing stamp there is a
// non-edge. The tables and epi are sc's: epi is valid until the next sweep.
func (b *Builder) sweepIso(sc *isoScratch, sa, sb *classSig, pi []topo.NodeID) (epi []int32, ok bool) {
	t := b.tab
	if pi[sa.dest] != sb.dest {
		return nil, false
	}
	sc.slot, sc.stamp, sc.epi = fit(sc.slot, len(pi)), fit(sc.stamp, len(pi)), fit(sc.epi, len(t.edges))
	slot := sc.slot   // slot[x]: index of edge (π(u), x), valid while stamp[x] is u's mark
	stamp := sc.stamp // first -1 once x is an image, so a second router landing on it shows
	clear(stamp)
	for u, w := range pi {
		if stamp[w] != 0 || sa.origin[u] != sb.origin[w] {
			return nil, false
		}
		stamp[w] = -1
	}
	epi = sc.epi // every edge is some router's out-edge, so the sweep writes it whole
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
			if stamp[x] != mark {
				return nil, false
			}
			epi[i] = slot[x]
		}
	}
	return epi, true
}

// orbit is what a transport seed keeps of the symmetries its searches
// proved: gens are the node permutations its searched transports were
// accepted under, and via/pre are a Schreier vector over the nodes, rooted
// at the seed's destination. An orbit never changes once published; a
// searched π that extends it gives the seed a new one (store.addGenerator).
// verifyComposed rests on this: every generator is a searched π that
// verifyIso accepted on this Builder's tables. Orbits never cross Builders:
// they are neither adopted nor persisted, and reset drops them.
type orbit struct {
	gens [][]topo.NodeID
	via  []int32 // per node: index in gens of the generator that reached it; -1 at the root, -2 outside the orbit
	pre  []int32 // per node reached: its preimage under gens[via[w]]
	size int     // nodes in the orbit
}

// extend returns the orbit of root under o's generators and g, or nil when
// g adds no point to it; a nil o stands for the orbit {root}. The BFS follows
// forward images only, which closes the orbit of the generated group: in a
// finite group every inverse is a forward power.
func (o *orbit) extend(root topo.NodeID, g []topo.NodeID) *orbit {
	size, gens := 1, [][]topo.NodeID(nil)
	if o != nil {
		size, gens = o.size, slices.Clip(o.gens)
	}
	n := len(g)
	next := &orbit{gens: append(gens, g), via: make([]int32, n), pre: make([]int32, n)}
	for i := range next.via {
		next.via[i] = -2
	}
	next.via[root] = -1
	queue := make([]topo.NodeID, 1, n)
	queue[0] = root
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for gi, gen := range next.gens {
			if w := gen[u]; next.via[w] == -2 {
				next.via[w], next.pre[w] = int32(gi), int32(u)
				queue = append(queue, w)
			}
		}
	}
	if len(queue) == size {
		return nil
	}
	next.size = len(queue)
	return next
}

// reaches reports whether w is in the orbit other than at its root. The
// root's path is empty, and the identity it would propose verifies only for
// a class with the seed's own fingerprint, which the identity cache serves.
func (o *orbit) reaches(w topo.NodeID) bool { return o.via[w] >= 0 }

// compose returns, in sc's buffers, the product of the generators along the
// vector's path from the root to w (which o reaches): a permutation mapping
// the root onto w, in |V| index loads per generator on the path and no
// hashing. It only proposes; verifyComposed decides whether the class at w is
// the seed's image under it.
func (o *orbit) compose(sc *isoScratch, w topo.NodeID) []topo.NodeID {
	path := sc.path[:0] // generator indices, w's end first
	for o.via[w] >= 0 {
		path = append(path, o.via[w])
		w = topo.NodeID(o.pre[w])
	}
	pi := append(sc.pi[:0], o.gens[path[len(path)-1]]...)
	for k := len(path) - 2; k >= 0; k-- {
		g := o.gens[path[k]]
		for u, x := range pi {
			pi[u] = g[x]
		}
	}
	sc.path, sc.pi = path, pi
	return pi
}

// seedTargets counts, per group of a seed, the distinct groups the live
// edges of its members reach, itself included: what core.Assemble's scan
// finds there. A π that verifyIso accepts maps live edges onto live edges
// and groups onto groups, so every class transported from the seed has the
// same counts (AssembleOptions.Targets). It reads the seed's Groups, which
// Assemble derived from F.
func (t *edgeTables) seedTargets(abs *core.Abstraction, live topo.EdgeSet) []int32 {
	cnt, seen := make([]int32, len(abs.Groups)), make([]int32, len(abs.Groups)) // seen[c] == a+1: group a reaches c
	for a, ms := range abs.Groups {
		for _, u := range ms {
			for i, hi := t.out(u); i < hi; i++ {
				if c := abs.F[t.edges[i].V]; live.Has(int(i)) && seen[c] != int32(a+1) {
					seen[c], cnt[a] = int32(a+1), cnt[a]+1
				}
			}
		}
	}
	return cnt
}

// transportAbs rebuilds class sig's abstraction from a cached entry by
// mapping its partition, prefs and liveness through π — liveness through the
// edge permutation verifyIso returned — and re-running the canonical
// assembly, which stops scanning a group at the seed's count of targets for
// it. It returns the abstraction with the mapped live-edge set and prefs
// vector, which let the entry survive an
// incremental update (adopt.go) without a policy re-scan. The result is
// exactly what CompressFresh would return for the class, because every phase
// before assembly commutes with π and the cached entry is gated on
// ColorSplits == 0.
func (b *Builder) transportAbs(sc *isoScratch, cand *absEntry, sig *classSig, pi []topo.NodeID, epi []int32) (*core.Abstraction, topo.EdgeSet, []int) {
	A := cand.abs
	sc.groupOf = fit(sc.groupOf, len(pi))
	groupOf := sc.groupOf
	prefs := make([]int, len(pi))
	for u, w := range pi {
		groupOf[w] = A.F[u]
		prefs[w] = cand.prefs[u]
	}
	live := cand.live.Permute(epi)
	abs := core.Assemble(b.G, sig.dest, groupOf, core.AssembleOptions{
		Mode:        b.mode(),
		Prefs:       func(u topo.NodeID) int { return prefs[u] },
		LiveEdges:   live, // t.edges shares g.Edges() order
		Iterations:  A.Iterations,
		ColorSplits: 0,
		Targets:     cand.targets, // π preserves each group's target count
	})
	return abs, live, prefs
}
