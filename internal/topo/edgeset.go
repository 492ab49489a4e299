package topo

import (
	"iter"
	"math/bits"
)

// EdgeSet is a set of one graph's edges, one bit each: bit i, LSB first in
// word i/64, is edge i of Edges(). nil is the empty set, so a set nothing is
// in allocates nothing. A liveness vector, a static mask and a guarded set
// are all EdgeSets, and a successor graph's Runs carry one across by
// CopyRange, a word at a time.
type EdgeSet []uint64

// NewEdgeSet returns an empty set over m edges.
func NewEdgeSet(m int) EdgeSet { return make(EdgeSet, (m+63)/64) }

// Has reports whether edge i is in s.
func (s EdgeSet) Has(i int) bool { return s != nil && s[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

// Set adds edge i to s.
func (s EdgeSet) Set(i int) { s[uint(i)/64] |= 1 << (uint(i) % 64) }

// All yields the edges in s, ascending.
func (s EdgeSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for k, w := range s {
			for ; w != 0; w &= w - 1 {
				if !yield(64*k + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// Permute returns the set holding edge to[i] for each edge i of s, where to
// permutes the edges s ranges over. It moves the edges s holds or, when s
// holds most of them, the edges s lacks, and complements the result: a
// class's liveness is nearly whole, so a few bits move, not every edge.
func (s EdgeSet) Permute(to []int32) EdgeSet {
	m, ones := len(to), 0
	for _, w := range s {
		ones += bits.OnesCount64(w)
	}
	flip := 2*ones > m
	out := NewEdgeSet(m)
	for k, w := range s {
		if flip {
			w = ^w
		}
		for ; w != 0; w &= w - 1 {
			if i := 64*k + bits.TrailingZeros64(w); i < m {
				out.Set(int(to[i]))
			}
		}
	}
	if flip {
		for k := range out {
			out[k] = ^out[k]
		}
		if r := m % 64; r != 0 {
			out[len(out)-1] &= 1<<r - 1
		}
	}
	return out
}

// CopyRange makes s's edges [dst, dst+n) those of from's edges [src,
// src+n), leaving s's others as they are. It moves up to 64 edges a step,
// whatever the two offsets' alignment; s and from must not share words.
func (s EdgeSet) CopyRange(dst int, from EdgeSet, src, n int) {
	for n > 0 {
		off := uint(dst) % 64
		k := min(64-int(off), n)
		mask := (uint64(1)<<k - 1) << off // k == 64: 1<<64 is 0, and 0-1 is every bit
		s[dst/64] = s[dst/64]&^mask | from.word(src)<<off&mask
		dst, src, n = dst+k, src+k, n-k
	}
}

// word returns the 64 edges of s from edge i on, as bits from the LSB up;
// past the end of s they read as absent.
func (s EdgeSet) word(i int) uint64 {
	q, r := i/64, uint(i)%64
	w := s[q] >> r
	if r != 0 && q+1 < len(s) {
		w |= s[q+1] << (64 - r)
	}
	return w
}
