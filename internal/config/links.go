package config

import (
	"maps"
	"sync"
)

// linkIndex finds the position in Links of the first link joining two
// routers without scanning Links: by a scan, a file of L link lines cost
// L²/2 string-pair comparisons, and every link a delta names O(L). Names are
// numbered as links first mention them so that an unordered pair is one
// word, a third of the map a [2]string key would build.
//
// It covers Links[:n] of the array data points at; a Links cut below n or
// moved to another array is indexed afresh, into a new linkIndex. A Fork
// reads its predecessor's index as base, below baseN only, and indexes the
// records from there on in its own maps: a fork never writes its
// predecessor's index, and records the predecessor appends later lie at or
// past baseN, where the fork does not look.
type linkIndex struct {
	mu    sync.Mutex
	base  *linkIndex
	baseN int
	data  *Link
	n     int
	ids   map[string]uint32
	at    map[uint64]int32 // first position of each pair indexed here, not in base
}

// index returns n's link index, caught up with Links and locked: the caller
// unlocks it.
func (n *Network) index() *linkIndex {
	x := n.links
	if x != nil {
		x.mu.Lock()
		if !x.covers(n.Links) {
			x.mu.Unlock()
			x = nil
		}
	}
	if x == nil {
		x = new(linkIndex)
		n.links = x
		x.mu.Lock()
	}
	for ; x.n < len(n.Links); x.n++ {
		l := n.Links[x.n]
		if i, k := x.lookup(l.A, l.B, true); i < 0 {
			x.at[k] = int32(x.n)
		}
	}
	if len(n.Links) > 0 {
		x.data = &n.Links[0]
	}
	return x
}

// covers reports whether links holds the records x indexed, where x
// indexed them. x is locked.
func (x *linkIndex) covers(links []Link) bool {
	return len(links) >= x.n && (x.n == 0 || x.data == &links[0])
}

// link returns the position of the first link joining a and b, appending
// one with count interfaces when there is none.
func (n *Network) link(a, b string, count int) int {
	x := n.index()
	defer x.mu.Unlock()
	i, k := x.lookup(a, b, true)
	if i >= 0 {
		return i
	}
	n.Links = append(n.Links, Link{A: a, B: b, Count: count})
	x.at[k] = int32(x.n)
	x.n, x.data = len(n.Links), &n.Links[0]
	return x.n - 1
}

// lookup returns the first position of the pair {a, b} in the records x
// covers, or -1, and the pair's key in x's own maps. With number set it
// numbers a name those maps lack, so that a pair it does not find has a
// key to be added under. x is locked.
func (x *linkIndex) lookup(a, b string, number bool) (int, uint64) {
	if x.base != nil {
		x.base.mu.Lock()
		i, _ := x.base.lookup(a, b, false)
		x.base.mu.Unlock()
		if i >= 0 && i < x.baseN {
			return i, 0
		}
	}
	ia, okA := x.id(a, number)
	ib, okB := x.id(b, number)
	if !okA || !okB {
		return -1, 0
	}
	k := uint64(min(ia, ib))<<32 | uint64(max(ia, ib))
	if i, ok := x.at[k]; ok {
		return int(i), k
	}
	return -1, k
}

// id returns name's number in x, numbering it if number is set.
func (x *linkIndex) id(name string, number bool) (uint32, bool) {
	id, ok := x.ids[name]
	if !ok && number {
		if x.ids == nil {
			x.ids, x.at = make(map[string]uint32), make(map[uint64]int32)
		}
		id, ok = uint32(len(x.ids)), true
		x.ids[name] = id
	}
	return id, ok
}

// fork returns the index of a fork whose Links are own, a copy of links,
// the Links of x's network: one that reads x below what x covers, or, when
// x is itself a fork, reads x's base and starts from copies of x's maps, so
// that no chain of forks grows. A stale or nil x gives an empty index.
func (x *linkIndex) fork(links, own []Link) *linkIndex {
	if x == nil {
		return new(linkIndex)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.n == 0 || !x.covers(links) {
		return new(linkIndex)
	}
	f := &linkIndex{base: x, baseN: x.n, n: x.n, data: &own[0]}
	if x.base != nil {
		f.base, f.baseN, f.ids, f.at = x.base, x.baseN, maps.Clone(x.ids), maps.Clone(x.at)
	}
	return f
}
