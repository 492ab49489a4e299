package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// successorOf returns prev's successor over links, a link set that differs
// from prev's only at the dirty vertices, spliced the way a successor
// Builder splices its topology: Rewired, the dirty vertices' links added,
// SpliceIndex.
func successorOf(prev *Graph, links [][2]NodeID, dirty []bool) *Graph {
	g := prev.Rewired(dirty)
	for _, l := range links {
		if dirty[l[0]] || dirty[l[1]] {
			g.AddLink(l[0], l[1])
		}
	}
	g.SpliceIndex(prev, dirty)
	return g
}

// requireSetIs fails unless s holds exactly the edges want marks, with
// every bit past them clear.
func requireSetIs(t *testing.T, tag string, s EdgeSet, want []bool) {
	t.Helper()
	if len(s) != (len(want)+63)/64 {
		t.Fatalf("%s: %d words for %d edges", tag, len(s), len(want))
	}
	for i := range 64 * len(s) {
		if on := i < len(want) && want[i]; s.Has(i) != on {
			t.Fatalf("%s: edge %d of %d is %v, want %v", tag, i, len(want), s.Has(i), on)
		}
	}
	if got := slices.Collect(s.All()); len(got) != len(slices.DeleteFunc(slices.Clone(want), func(b bool) bool { return !b })) {
		t.Fatalf("%s: All yields %d edges", tag, len(got))
	}
}

// TestEdgeSetCopyRangeFollowsRuns holds the word-wise range copy to the
// []bool copy it replaced. Along seeded edit chains on random graphs —
// single-link flaps, link-ups of new pairs and batches of several of either
// — a random liveness set of the predecessor is carried onto the successor
// through Diff's runs, once by CopyRange and once bool by bool; CopyRange
// between random offsets of two random sets must leave every other bit of
// its target as it was; and Permute must carry sets from empty to whole
// through random permutations as the bool scatter does. Edge counts are not
// multiples of 64, and runs start at different offsets within their words.
func TestEdgeSetCopyRangeFollowsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	crossing := 0 // runs that cross a word boundary, their ends at unaligned offsets
	partial := 0  // successors whose last word is partial
	for trial := range 60 {
		n := 20 + rng.Intn(40)
		prev := New()
		for u := range n {
			prev.AddNode(fmt.Sprint("r", u))
		}
		var links [][2]NodeID
		has := func(u, v NodeID) bool {
			return slices.ContainsFunc(links, func(l [2]NodeID) bool { return l == [2]NodeID{u, v} || l == [2]NodeID{v, u} })
		}
		for range 3 * n {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v && !has(u, v) {
				links = append(links, [2]NodeID{u, v})
				prev.AddLink(u, v)
			}
		}
		for step := range 6 {
			m := prev.NumEdges()
			dirty := make([]bool, n)
			edits := 1 + rng.Intn(3)*(step%2) // a flap or link-up, or a batch
			for range edits {
				if rng.Intn(2) == 0 && len(links) > 0 {
					k := rng.Intn(len(links))
					dirty[links[k][0]], dirty[links[k][1]] = true, true
					links = slices.Delete(links, k, k+1)
				} else if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v && !has(u, v) {
					dirty[u], dirty[v] = true, true
					links = append(links, [2]NodeID{u, v})
				}
			}
			g := successorOf(prev, links, dirty)
			if g.NumEdges()%64 != 0 {
				partial++
			}
			runs, _, _ := g.Diff(prev, dirty)
			live, ref := NewEdgeSet(m), make([]bool, m)
			for i := range m {
				if rng.Intn(3) != 0 {
					live.Set(i)
					ref[i] = true
				}
			}
			requireSetIs(t, "predecessor", live, ref)
			got, want := NewEdgeSet(g.NumEdges()), make([]bool, g.NumEdges())
			for _, r := range runs {
				got.CopyRange(int(r.New), live, int(r.Old), int(r.N))
				copy(want[r.New:r.New+r.N], ref[r.Old:r.Old+r.N])
				if r.New/64 != (r.New+r.N-1)/64 && r.New%64 != r.Old%64 {
					crossing++
				}
			}
			requireSetIs(t, fmt.Sprintf("trial %d step %d: %d runs over %d edges", trial, step, len(runs), g.NumEdges()), got, want)
			prev = g
		}
	}
	if crossing < 100 || partial < 300 {
		t.Fatalf("only %d runs crossed a word boundary at an unaligned offset, %d of 360 edge counts not a multiple of 64", crossing, partial)
	}

	for trial := range 500 {
		m := 1 + rng.Intn(300)
		src, dst := NewEdgeSet(m), NewEdgeSet(m)
		sref, dref := make([]bool, m), make([]bool, m)
		for i := range m {
			if sref[i] = rng.Intn(2) == 0; sref[i] {
				src.Set(i)
			}
			if dref[i] = rng.Intn(2) == 0; dref[i] {
				dst.Set(i)
			}
		}
		k := rng.Intn(m + 1)
		from, to := rng.Intn(m-k+1), rng.Intn(m-k+1)
		dst.CopyRange(to, src, from, k)
		copy(dref[to:to+k], sref[from:from+k])
		requireSetIs(t, fmt.Sprintf("trial %d: %d edges from %d to %d of %d", trial, k, from, to, m), dst, dref)
	}

	for trial := range 500 {
		m := 1 + rng.Intn(300)
		to, ref := make([]int32, m), make([]bool, m)
		for i, p := range rng.Perm(m) {
			to[i] = int32(p)
		}
		s, live := NewEdgeSet(m), rng.Intn(m+1) // from empty to whole
		for _, i := range rng.Perm(m)[:live] {
			s.Set(i)
		}
		for i, f := range to {
			ref[f] = s.Has(i)
		}
		requireSetIs(t, fmt.Sprintf("trial %d: %d of %d edges permuted", trial, live, m), s.Permute(to), ref)
	}
}
