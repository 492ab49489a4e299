// Package usf implements the union-split-find partition structure used by
// Bonsai's abstraction-refinement loop (paper §5.2, Algorithm 1). It
// maintains a partition of {0..n-1} into disjoint groups (the abstract
// nodes), supports splitting a group by an arbitrary key function, and maps
// elements to group representatives in O(1).
//
// The structure is built for the refinement hot path: Refine performs a
// single-pass multi-way split — all key classes are carved out of the group
// in one rewrite of its member storage — and both Refine and Split reuse
// per-Partition scratch instead of per-call maps, so splitting allocates
// nothing beyond the group-table bookkeeping itself.
package usf

import "slices"

// kv is one (key, element) scratch pair used by Refine and Split.
type kv struct {
	k int64
	x int
}

// Partition maintains disjoint groups over the elements 0..n-1.
type Partition struct {
	group  []int   // element -> group id
	member [][]int // group id -> sorted members
	live   []int   // ids of live groups, in creation order

	kv []kv // scratch: (key, element) pairs, reused across calls
}

// New returns the coarsest partition: a single group holding 0..n-1.
func New(n int) *Partition {
	p := &Partition{group: make([]int, n)}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p.member = append(p.member, all)
	p.live = append(p.live, 0)
	return p
}

// Len returns the number of elements.
func (p *Partition) Len() int { return len(p.group) }

// NumGroups returns the current number of groups.
func (p *Partition) NumGroups() int { return len(p.live) }

// Find returns the group id of element x.
func (p *Partition) Find(x int) int { return p.group[x] }

// Members returns the sorted members of group id. Callers must not modify
// the returned slice: sibling groups carved from one split share its backing
// array.
func (p *Partition) Members(id int) []int { return p.member[id] }

// Groups returns the ids of all live groups in creation order. The slice is
// append-only, so callers may capture it to snapshot the groups existing at
// one moment; they must not modify it.
func (p *Partition) Groups() []int { return p.live }

// Split separates the listed elements out of their groups. Elements must
// currently belong to live groups. For each affected group g, the elements
// of g listed in xs form one new group and the remainder of g stays in g
// (unless the remainder is empty, in which case g keeps exactly xs and no
// new group is created). New groups are created in ascending order of the
// group being divided. It returns the ids of the newly created groups.
func (p *Partition) Split(xs []int) []int {
	kvs := p.kv[:0]
	for _, x := range xs {
		kvs = append(kvs, kv{int64(p.group[x]), x})
	}
	p.kv = kvs
	slices.SortFunc(kvs, cmpKV)
	var created []int
	for s := 0; s < len(kvs); {
		e := s + 1
		for e < len(kvs) && kvs[e].k == kvs[s].k {
			e++
		}
		g := int(kvs[s].k)
		ms := p.member[g]
		// Deduplicate repeated listings of one element (sorted, so adjacent).
		np := 0
		for i := s; i < e; i++ {
			if i == s || kvs[i].x != kvs[i-1].x {
				kvs[s+np] = kvs[i]
				np++
			}
		}
		if np < len(ms) {
			// Single pass over the group: keep unlisted members in the front
			// of the existing backing, move the picked ones to the back. Both
			// sequences are ascending, so the rewrite preserves sortedness.
			w := 0
			j := s
			for _, x := range ms {
				if j < s+np && kvs[j].x == x {
					j++
					continue
				}
				ms[w] = x
				w++
			}
			for i := 0; i < np; i++ {
				ms[w+i] = kvs[s+i].x
			}
			newID := len(p.member)
			picked := ms[w : w+np : w+np]
			p.member[g] = ms[:w:w]
			p.member = append(p.member, picked)
			p.live = append(p.live, newID)
			for _, x := range picked {
				p.group[x] = newID
			}
			created = append(created, newID)
		}
		s = e
	}
	return created
}

// Refine splits group id by key: members with equal keys stay together.
// It returns true if the group actually split. Keys are opaque integers —
// typically interned signature IDs, so callers compare semantic signatures
// without materialising them as strings.
func (p *Partition) Refine(id int, key func(x int) int64) bool {
	_, split := p.refineInto(id, key, nil, false)
	return split
}

// RefineCollect is Refine, additionally appending the ids of the groups the
// split created to created (typically a reused scratch slice) and returning
// the extended slice. The worklist engine uses it to learn which members
// moved without re-deriving the partition delta.
func (p *Partition) RefineCollect(id int, key func(x int) int64, created []int) ([]int, bool) {
	return p.refineInto(id, key, created, true)
}

// refineInto performs the single-pass multi-way split: keys are computed
// once per member, members are ordered by (key, member) in scratch, and
// every key class is written back into the group's original backing array —
// the first class (smallest key) keeps the group id, later classes become
// new groups in ascending key order.
func (p *Partition) refineInto(id int, key func(x int) int64, created []int, collect bool) ([]int, bool) {
	members := p.member[id]
	if len(members) <= 1 {
		return created, false
	}
	kvs := p.kv[:0]
	uniform := true
	k0 := key(members[0])
	kvs = append(kvs, kv{k0, members[0]})
	for _, x := range members[1:] {
		k := key(x)
		if k != k0 {
			uniform = false
		}
		kvs = append(kvs, kv{k, x})
	}
	p.kv = kvs
	if uniform {
		return created, false
	}
	// Stable on members because they are already ascending and the
	// comparison breaks ties on x, so each class stays sorted.
	slices.SortFunc(kvs, cmpKV)
	for i := range kvs {
		members[i] = kvs[i].x
	}
	first := true
	for s := 0; s < len(kvs); {
		e := s + 1
		for e < len(kvs) && kvs[e].k == kvs[s].k {
			e++
		}
		run := members[s:e:e]
		if first {
			p.member[id] = run
			first = false
		} else {
			newID := len(p.member)
			p.member = append(p.member, run)
			p.live = append(p.live, newID)
			for _, x := range run {
				p.group[x] = newID
			}
			if collect {
				created = append(created, newID)
			}
		}
		s = e
	}
	return created, true
}

// cmpKV orders scratch pairs by key, then element.
func cmpKV(a, b kv) int {
	switch {
	case a.k < b.k:
		return -1
	case a.k > b.k:
		return 1
	case a.x < b.x:
		return -1
	case a.x > b.x:
		return 1
	}
	return 0
}

// Snapshot returns the current groups as a slice of sorted member slices,
// ordered by smallest member, along with a map element -> snapshot index.
// The member slices share one freshly allocated backing array.
func (p *Partition) Snapshot() ([][]int, []int) {
	groups := make([][]int, 0, len(p.live))
	buf := make([]int, len(p.group))
	w := 0
	for _, id := range p.live {
		n := copy(buf[w:], p.member[id])
		groups = append(groups, buf[w:w+n:w+n])
		w += n
	}
	slices.SortFunc(groups, func(a, b []int) int { return a[0] - b[0] })
	idx := make([]int, len(p.group))
	for i, g := range groups {
		for _, x := range g {
			idx[x] = i
		}
	}
	return groups, idx
}
