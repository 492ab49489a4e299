package core

import (
	"fmt"
	"slices"

	"bonsai/internal/topo"
	"bonsai/internal/usf"
)

// Adjacency construction and the self-loop-freedom coloring against their
// own past. Until edge keys were numbered by plain equality and the coloring
// walked each member's live edge lists, buildAdjacency interned keys through a
// map[EdgeKey]int32 and also built a sorted, deduplicated live-neighbor list
// per node, and colorSplit placed each member in the first bucket holding no
// member adjacent to it by a binary search over those lists. Both are kept
// here, unedited but for names, as the reference.

// refAdjacency is the adjacency as it stood before the neighbor lists went.
type refAdjacency struct {
	out  [][]liveEdge
	in   [][]liveEdge
	nbrs [][]topo.NodeID // union of live out/in neighbors, sorted, deduped
}

// buildAdjacencyReference is buildAdjacency with map interning.
func buildAdjacencyReference(g *topo.Graph, keys []EdgeKey, edgeKey func(u, v topo.NodeID) EdgeKey) (*refAdjacency, []bool) {
	n := g.NumNodes()
	edges := g.Edges()
	a := &refAdjacency{
		out:  make([][]liveEdge, n),
		in:   make([][]liveEdge, n),
		nbrs: make([][]topo.NodeID, n),
	}
	live := make([]bool, len(edges))
	toks := make([]int32, len(edges))
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	keyIDs := make(map[EdgeKey]int32, 16)
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
		live[i] = true
		nLive++
		tok, ok := keyIDs[k]
		if !ok {
			tok = int32(len(keyIDs))
			keyIDs[k] = tok
		}
		toks[i] = tok
		outDeg[e.U]++
		inDeg[e.V]++
	}
	outBuf := make([]liveEdge, nLive)
	inBuf := make([]liveEdge, nLive)
	nbrBuf := make([]topo.NodeID, 2*nLive)
	oo, io, no := 0, 0, 0
	for u := 0; u < n; u++ {
		od, id := int(outDeg[u]), int(inDeg[u])
		a.out[u] = outBuf[oo : oo : oo+od]
		a.in[u] = inBuf[io : io : io+id]
		a.nbrs[u] = nbrBuf[no : no : no+od+id]
		oo += od
		io += id
		no += od + id
	}
	for i, e := range edges {
		if !live[i] {
			continue
		}
		a.out[e.U] = append(a.out[e.U], liveEdge{e.V, toks[i]})
		a.in[e.V] = append(a.in[e.V], liveEdge{e.U, toks[i]})
		a.nbrs[e.U] = append(a.nbrs[e.U], e.V)
		a.nbrs[e.V] = append(a.nbrs[e.V], e.U)
	}
	for i, ns := range a.nbrs {
		slices.Sort(ns)
		a.nbrs[i] = slices.Compact(ns)
	}
	return a, live
}

// adjacent reports whether a live edge joins u and v in either direction.
func (a *refAdjacency) adjacent(u, v int) bool {
	_, found := slices.BinarySearch(a.nbrs[u], topo.NodeID(v))
	return found
}

// colorReference is colorSplit's bucket coloring: the color classes, in
// color order, of first-fit in member order.
func colorReference(a *refAdjacency, members []int) [][]int {
	var buckets [][]int
	for _, u := range members {
		placed := false
		for ci := range buckets {
			ok := true
			for _, v := range buckets[ci] {
				if a.adjacent(u, v) {
					ok = false
					break
				}
			}
			if ok {
				buckets[ci] = append(buckets[ci], u)
				placed = true
				break
			}
		}
		if !placed {
			buckets = append(buckets, []int{u})
		}
	}
	return buckets
}

// AdjacencyMatchesReference checks, for one destination class, that
// buildAdjacency yields the reference's liveness, tokens and out/in lists,
// and that colorSplit divides groups into exactly the reference's color
// classes: the whole node set as one group, and every multi-member group of
// the ∀∃ fixpoint — the groups phase 2b first colors. It returns how many of
// the latter split. It is exported to the differential tests of
// package core_test, which compile real edge keys through internal/build.
func AdjacencyMatchesReference(g *topo.Graph, dest topo.NodeID, opt Options) (int, error) {
	adj := buildAdjacency(g, opt.EdgeKeys, opt.EdgeKey)
	ref, refLive := buildAdjacencyReference(g, opt.EdgeKeys, opt.EdgeKey)
	for i, l := range refLive {
		if adj.live.Has(i) != l {
			return 0, fmt.Errorf("edge %d: liveness differs from the reference", i)
		}
	}
	for u := range ref.out {
		if !slices.Equal(adj.out[u], ref.out[u]) || !slices.Equal(adj.in[u], ref.in[u]) {
			return 0, fmt.Errorf("node %d: out %v in %v, reference out %v in %v",
				u, adj.out[u], adj.in[u], ref.out[u], ref.in[u])
		}
	}

	n := g.NumNodes()
	check := func(e *engine, id int) (bool, error) {
		members := slices.Clone(e.p.Members(id))
		want := colorReference(ref, members)
		split := e.colorSplit(id, e.p.Members(id))
		// The split keys by color and creates groups in ascending key order:
		// the first color keeps id, the k-th created group holds color k+1.
		got := [][]int{e.p.Members(id)}
		if split {
			for _, c := range e.created {
				got = append(got, e.p.Members(c))
			}
		}
		if split != (len(want) > 1) || !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			return split, fmt.Errorf("group %v: colors %v, reference %v", members, got, want)
		}
		for u, c := range e.color {
			if c != 0 {
				return split, fmt.Errorf("node %d left colored %d", u, c)
			}
		}
		return split, nil
	}
	if _, err := check(&engine{p: usf.New(n), adj: adj}, 0); err != nil {
		return 0, fmt.Errorf("whole node set: %w", err)
	}

	p := usf.New(n)
	e := &engine{p: p, adj: adj, sc: newSigCtx(adj, p), worklist: true}
	p.Split([]int{int(dest)})
	for _, id := range p.Groups() {
		e.markDirty(id)
	}
	e.phase1()
	splits := 0
	for _, id := range slices.Clone(e.canonGroups()) {
		split, err := check(e, id)
		if err != nil {
			return 0, fmt.Errorf("∀∃ group %d: %w", id, err)
		}
		if split {
			splits++
		}
	}
	return splits, nil
}
