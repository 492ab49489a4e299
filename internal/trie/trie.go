// Package trie implements a binary prefix trie over IPv4 prefixes. Bonsai
// uses it to partition the address space into destination equivalence
// classes: leaves record which routers originate each prefix, and every
// address range whose longest-match prefix is the same belongs to one class
// (paper §5.1, "Destination Equivalence Classes").
//
// A Trie only accumulates insertions; Freeze turns it into the immutable
// Index that enumerates the classes and looks them up.
package trie

import (
	"fmt"
	"net/netip"
	"slices"
)

// Trie maps IPv4 prefixes to sets of origin names.
type Trie struct {
	nodes []node  // nodes[0] is the root
	terms []Class // inserted prefixes in insertion order; origins unsorted, may repeat
}

// node is one trie vertex. Nodes live in one flat array and name their
// children by position, so a lookup chases no pointers.
type node struct {
	lo, hi int32 // bit 0 / bit 1 children; 0 = none (the root is nobody's child)
	class  int32 // Trie: index into terms; Index: index into classes; -1 = none
}

// New returns an empty trie.
func New() *Trie { return &Trie{nodes: []node{{class: -1}}} }

// Insert records that origin originates prefix p. Only IPv4 prefixes are
// supported.
func (t *Trie) Insert(p netip.Prefix, origin string) {
	if !p.Addr().Is4() {
		panic(fmt.Sprintf("trie: non-IPv4 prefix %v", p))
	}
	p = p.Masked()
	bits := addrBits(p.Addr())
	cur := int32(0)
	for i := 0; i < p.Bits(); i++ {
		hi := bits&(1<<(31-uint(i))) != 0
		next := t.nodes[cur].child(hi)
		if next == 0 {
			next = int32(len(t.nodes))
			t.nodes = append(t.nodes, node{class: -1})
			if hi {
				t.nodes[cur].hi = next
			} else {
				t.nodes[cur].lo = next
			}
		}
		cur = next
	}
	n := &t.nodes[cur]
	if n.class < 0 {
		n.class = int32(len(t.terms))
		t.terms = append(t.terms, Class{Prefix: p})
	}
	if origin != "" {
		t.terms[n.class].Origins = append(t.terms[n.class].Origins, origin)
	}
}

func (n *node) child(hi bool) int32 {
	if hi {
		return n.hi
	}
	return n.lo
}

// Class is a destination equivalence class: a representative prefix and the
// set of routers originating it. All addresses whose longest match is Prefix
// behave identically in the control plane, so one SRP per class suffices.
type Class struct {
	Prefix  netip.Prefix
	Origins []string
}

// Index is a frozen trie: the equivalence classes in sorted order plus the
// node array that finds the class owning an address. It is immutable and
// safe for concurrent use; a lookup allocates nothing.
type Index struct {
	nodes   []node
	classes []Class
}

// Freeze builds the Index of everything inserted so far. The trie itself is
// left untouched and may keep growing; the Index does not see later inserts.
func (t *Trie) Freeze() *Index {
	x := &Index{nodes: slices.Clone(t.nodes), classes: make([]Class, 0, len(t.terms))}
	x.shadow(0)
	x.number(0, t.terms)
	return x
}

// shadow reports whether the prefixes at or below n cover n's whole address
// range, and strips the class from every prefix its strict descendants
// cover: such a prefix is the longest match for no address, so it is not a
// class, and dropping it cannot change any longest match either.
func (x *Index) shadow(n int32) bool {
	nd := &x.nodes[n]
	lo := nd.lo != 0 && x.shadow(nd.lo)
	hi := nd.hi != 0 && x.shadow(nd.hi)
	if lo && hi {
		nd.class = -1
		return true
	}
	return nd.class >= 0
}

// number walks pre-order (node, low child, high child), which visits
// prefixes in (address, prefix length) order: a parent's base address is
// the smallest of its subtree and shorter prefixes sort first on ties. Each
// surviving prefix becomes the next class, its origins sorted and deduped.
func (x *Index) number(n int32, terms []Class) {
	nd := &x.nodes[n]
	if nd.class >= 0 {
		c := terms[nd.class]
		c.Origins = slices.Clone(c.Origins)
		slices.Sort(c.Origins)
		c.Origins = slices.Compact(c.Origins)
		nd.class = int32(len(x.classes))
		x.classes = append(x.classes, c)
	}
	if nd.lo != 0 {
		x.number(nd.lo, terms)
	}
	if nd.hi != 0 {
		x.number(nd.hi, terms)
	}
}

// Classes returns one equivalence class per inserted prefix that is the
// longest match for at least one address (i.e. is not fully shadowed by
// longer inserted prefixes), sorted by prefix. The slice is shared; callers
// must not modify it.
func (x *Index) Classes() []Class { return x.classes }

// Find returns the class a query for p targets: the class whose prefix is
// exactly p when there is one, otherwise the class owning p's address (its
// longest match). A /32 is therefore a plain address lookup. ok is false
// when no class matches, which includes every non-IPv4 prefix.
func (x *Index) Find(p netip.Prefix) (Class, bool) {
	if !p.Addr().Is4() {
		return Class{}, false
	}
	exact := -1 // depth at which a class is p itself; none when p has host bits set
	if p == p.Masked() {
		exact = p.Bits()
	}
	bits := addrBits(p.Addr())
	best, cur := int32(-1), int32(0)
	for depth := 0; ; depth++ {
		if c := x.nodes[cur].class; c >= 0 {
			best = c
			if depth == exact {
				break
			}
		}
		if depth == 32 {
			break
		}
		if cur = x.nodes[cur].child(bits&(1<<(31-uint(depth))) != 0); cur == 0 {
			break
		}
	}
	if best < 0 {
		return Class{}, false
	}
	return x.classes[best], true
}

func addrBits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
