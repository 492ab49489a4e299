// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with hash-consing, so that two boolean functions are semantically equal if
// and only if their node handles are equal. Bonsai relies on this canonical
// property to compare router transfer functions in O(1) after construction
// (paper §5.1, "Encoding transfer function using BDDs").
//
// The implementation is a classic unique-table + memoised-ITE design
// (Bryant 1986, Brace-Rudell-Bryant 1990) built only on the standard library.
// A Manager owns all nodes; Node values are indices into the manager and are
// only meaningful together with the manager that produced them.
//
// Storage is structure-of-arrays: a node is a row across two parallel arrays
// — level[i] and a packed lohi[i] word holding both children — instead of a
// 16-byte struct. Traversals touch 12 bytes per node across two dense
// arrays, and a single 64-bit load yields both children. The unique table is
// open-addressed (linear probing over 32-bit refs, slot 0 = empty) rather
// than chained, so a probe walks a short run of one cache line instead of
// chasing per-node chain links through the node array.
//
// Every manager seeds the same canonical prefix: terminals at handles 0/1
// and the single-variable diagrams at Var(i) = 2+2i, NVar(i) = 3+2i. Two
// managers over the same variable count therefore agree on these handles,
// which makes Var a bounds check plus arithmetic (no table probe) and lets a
// Space stamp the prefix into each manager by copying it (see Space).
//
// Operation results are memoised in fixed-size, power-of-two, open-addressed
// caches in the style of Brace-Rudell-Bryant: each slot holds one entry and a
// colliding insert simply overwrites it. Lossy caching never affects
// correctness (the structural recursion terminates and recomputes on a miss)
// but removes the map overhead — hashing, bucket chasing and incremental
// growth — from the hot path, and keeps probes to a single cache line.
// Because no cached operation takes the False terminal as its first operand
// (terminal rules short-circuit first), a zeroed slot reads as empty and the
// caches need no initialisation pass.
package bdd

import "fmt"

// Node is a handle to a BDD node within a Manager. The two terminals are
// False (0) and True (1). Node handles are canonical: within one Manager,
// equal handles represent equal boolean functions and vice versa.
type Node int32

// Terminal nodes, valid for every Manager.
const (
	False Node = 0
	True  Node = 1
)

// Manager owns a universe of BDD nodes over a fixed number of variables.
// Variable indices run from 0 (top of every diagram) to NumVars-1.
// The zero value is not usable; call New or Space.NewManager.
type Manager struct {
	nvars   int32
	seedLen int32 // terminals + per-variable seeds; identical across managers with equal nvars

	// Structure-of-arrays node storage. lohi packs lo in the low 32 bits
	// and hi in the high 32.
	level []int32
	lohi  []uint64

	// Open-addressed unique table of node refs. 0 marks an empty slot
	// (False is a terminal and never inserted).
	table []int32
	mask  uint32

	ite    []iteEntry
	apply2 []applyEntry
	unary  []unaryEntry
	sat    []satEntry

	// Op-cache counters, folded into engine aggregates by the owner.
	hits       uint64
	misses     uint64
	overwrites uint64
}

// Cache geometry. Sizes are fixed per Manager (lossy caches never grow);
// powers of two keep the index computation a mask. The binary/ITE caches
// dominate and get the largest tables; entries are 16 bytes, so the total is
// ~2.3 MiB per Manager.
const (
	// cacheBits is the size exponent of the ITE/apply operation caches
	// (2^bits slots each); the unary and sat-count caches stay 4x and 8x
	// smaller respectively.
	cacheBits = 16

	// templateCacheBits sizes the manager a Space seeds once and keeps only
	// the node arrays of; its caches are never used.
	templateCacheBits = 8
)

// iteEntry caches ITE(f, g, h) = r. f == 0 marks an empty slot (a terminal
// f never reaches the cache).
type iteEntry struct{ f, g, h, r Node }

// applyEntry caches op(a, b) = r. a == 0 marks an empty slot.
type applyEntry struct {
	a, b, r Node
	op      uint8
}

// unaryEntry caches op(a, arg) = r. a == 0 marks an empty slot.
type unaryEntry struct {
	a, r Node
	arg  int32
	op   uint8
}

// satEntry caches satCountRec(n) = c. n == 0 marks an empty slot.
type satEntry struct {
	n Node
	c float64
}

const (
	opNot uint8 = iota
	opAnd
	opOr
	opXor
	opRestrictF
	opRestrictT
	opExists
)

// New creates a manager for numVars boolean variables.
func New(numVars int) *Manager {
	m := newShell(numVars, cacheBits)
	m.seed()
	return m
}

// newShell allocates a manager with caches of 2^bits ITE/apply slots but no
// nodes.
func newShell(numVars, bits int) *Manager {
	if numVars < 0 {
		panic("bdd: negative variable count")
	}
	return &Manager{
		nvars:  int32(numVars),
		ite:    make([]iteEntry, 1<<bits),
		apply2: make([]applyEntry, 1<<bits),
		unary:  make([]unaryEntry, 1<<(bits-2)),
		sat:    make([]satEntry, 1<<(bits-3)),
	}
}

// initialTableSize returns the deterministic unique-table size for a fresh
// manager over numVars variables: large enough to hold the seed prefix well
// under the growth threshold, and identical for every manager with the same
// variable count so seeded tables can be shared byte-for-byte.
func initialTableSize(numVars int) uint32 {
	size := uint32(1) << 12
	need := uint32(2+2*numVars) * 2
	for size < need {
		size *= 2
	}
	return size
}

// seed populates the canonical prefix: terminals at 0/1 (level nvars, one
// past the last real variable, making level comparisons uniform) and the
// positive/negative single-variable diagrams at 2+2i / 3+2i.
func (m *Manager) seed() {
	size := initialTableSize(int(m.nvars))
	m.table = make([]int32, size)
	m.mask = size - 1
	m.level = append(m.level, m.nvars, m.nvars)
	m.lohi = append(m.lohi, pack(False, False), pack(True, True))
	for i := int32(0); i < m.nvars; i++ {
		m.insert(i, pack(False, True))
		m.insert(i, pack(True, False))
	}
	m.seedLen = int32(len(m.level))
}

// insert appends a node row and links it into the unique table without
// probing for an existing entry (callers guarantee novelty).
func (m *Manager) insert(level int32, key uint64) Node {
	h := hashNode(level, key) & m.mask
	for m.table[h] != 0 {
		h = (h + 1) & m.mask
	}
	idx := int32(len(m.level))
	m.level = append(m.level, level)
	m.lohi = append(m.lohi, key)
	m.table[h] = idx
	return Node(idx)
}

// NumVars reports the number of variables the manager was created with.
func (m *Manager) NumVars() int { return int(m.nvars) }

// Size reports the total number of live nodes (including terminals and the
// per-variable seed prefix).
func (m *Manager) Size() int { return len(m.level) }

// pack combines two children into one unique-table key / storage word.
func pack(lo, hi Node) uint64 { return uint64(uint32(lo)) | uint64(uint32(hi))<<32 }

func unpack(w uint64) (lo, hi Node) { return Node(uint32(w)), Node(w >> 32) }

// hashNode scrambles (level, children) into a table index seed
// (splitmix64-style finalizer over the packed word).
func hashNode(level int32, key uint64) uint32 {
	x := key + uint64(uint32(level))*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return uint32(x ^ x>>33)
}

// mix3 scrambles an operand triple into a cache index seed.
func mix3(a, b, c Node) uint32 {
	h := uint32(a)*0x9e3779b1 ^ uint32(b)*0x85ebca6b ^ uint32(c)*0xc2b2ae35
	h ^= h >> 15
	h *= 0x2c1b3c6d
	h ^= h >> 12
	return h
}

// grow doubles the unique table and reinserts every non-terminal node.
func (m *Manager) grow() {
	newSize := (m.mask + 1) * 2
	m.table = make([]int32, newSize)
	m.mask = newSize - 1
	for i := 2; i < len(m.level); i++ {
		h := hashNode(m.level[i], m.lohi[i]) & m.mask
		for m.table[h] != 0 {
			h = (h + 1) & m.mask
		}
		m.table[h] = int32(i)
	}
}

// mk returns the canonical node (level, lo, hi), applying the ROBDD
// reduction rules.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	key := pack(lo, hi)
	h := hashNode(level, key) & m.mask
	for {
		idx := m.table[h]
		if idx == 0 {
			break
		}
		if m.lohi[idx] == key && m.level[idx] == level {
			return Node(idx)
		}
		h = (h + 1) & m.mask
	}
	// Keep the load factor at or below 3/4 so probe runs stay short.
	if uint32(len(m.level))*4 >= (m.mask+1)*3 {
		m.grow()
		h = hashNode(level, key) & m.mask
		for m.table[h] != 0 {
			h = (h + 1) & m.mask
		}
	}
	idx := int32(len(m.level))
	m.level = append(m.level, level)
	m.lohi = append(m.lohi, key)
	m.table[h] = idx
	return Node(idx)
}

// Var returns the BDD for variable i. Thanks to the seeded prefix this is
// pure arithmetic — no unique-table probe — and small enough to inline.
func (m *Manager) Var(i int) Node {
	if uint32(i) >= uint32(m.nvars) {
		badVar(i, m.nvars)
	}
	return Node(2 + 2*int32(i))
}

// NVar returns the BDD for the negation of variable i.
func (m *Manager) NVar(i int) Node {
	if uint32(i) >= uint32(m.nvars) {
		badVar(i, m.nvars)
	}
	return Node(3 + 2*int32(i))
}

func badVar(i int, nvars int32) {
	panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, nvars))
}

// Const returns True or False.
func (m *Manager) Const(b bool) Node {
	if b {
		return True
	}
	return False
}

// Not returns the complement of a.
func (m *Manager) Not(a Node) Node {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	e := &m.unary[mix3(a, Node(opNot), 0)&uint32(len(m.unary)-1)]
	if e.a == a && e.op == opNot && e.arg == 0 {
		m.hits++
		return e.r
	}
	m.misses++
	lo, hi := unpack(m.lohi[a])
	r := m.mk(m.level[a], m.Not(lo), m.Not(hi))
	if e.a != 0 {
		m.overwrites++
	}
	*e = unaryEntry{a: a, r: r, arg: 0, op: opNot}
	return r
}

// And returns the conjunction of a and b.
func (m *Manager) And(a, b Node) Node {
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	e := &m.apply2[mix3(a, b, Node(opAnd))&uint32(len(m.apply2)-1)]
	if e.a == a && e.b == b && e.op == opAnd {
		m.hits++
		return e.r
	}
	return m.applyMiss(opAnd, a, b, e)
}

// Or returns the disjunction of a and b.
func (m *Manager) Or(a, b Node) Node {
	switch {
	case a == True || b == True:
		return True
	case a == False:
		return b
	case b == False:
		return a
	case a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	e := &m.apply2[mix3(a, b, Node(opOr))&uint32(len(m.apply2)-1)]
	if e.a == a && e.b == b && e.op == opOr {
		m.hits++
		return e.r
	}
	return m.applyMiss(opOr, a, b, e)
}

// Xor returns the exclusive-or of a and b.
func (m *Manager) Xor(a, b Node) Node {
	switch {
	case a == False:
		return b
	case b == False:
		return a
	case a == True:
		return m.Not(b)
	case b == True:
		return m.Not(a)
	case a == b:
		return False
	}
	if a > b {
		a, b = b, a
	}
	e := &m.apply2[mix3(a, b, Node(opXor))&uint32(len(m.apply2)-1)]
	if e.a == a && e.b == b && e.op == opXor {
		m.hits++
		return e.r
	}
	return m.applyMiss(opXor, a, b, e)
}

// applyMiss is the out-of-line slow path of the binary ops: recurse, then
// fill the probed slot. Keeping it out of And/Or/Xor keeps their cache-hit
// path one probe with no extra call frame.
func (m *Manager) applyMiss(op uint8, a, b Node, e *applyEntry) Node {
	m.misses++
	r := m.applyRec(op, a, b)
	if e.a != 0 {
		m.overwrites++
	}
	*e = applyEntry{a: a, b: b, r: r, op: op}
	return r
}

func (m *Manager) applyRec(op uint8, a, b Node) Node {
	la, lb := m.level[a], m.level[b]
	level := la
	if lb < level {
		level = lb
	}
	alo, ahi := a, a
	if la == level {
		alo, ahi = unpack(m.lohi[a])
	}
	blo, bhi := b, b
	if lb == level {
		blo, bhi = unpack(m.lohi[b])
	}
	var lo, hi Node
	switch op {
	case opAnd:
		lo, hi = m.And(alo, blo), m.And(ahi, bhi)
	case opOr:
		lo, hi = m.Or(alo, blo), m.Or(ahi, bhi)
	case opXor:
		lo, hi = m.Xor(alo, blo), m.Xor(ahi, bhi)
	default:
		panic("bdd: unknown binary op")
	}
	return m.mk(level, lo, hi)
}

// Equiv returns the BDD of a <=> b.
func (m *Manager) Equiv(a, b Node) Node { return m.Not(m.Xor(a, b)) }

// ITE returns if-then-else(f, g, h) = f·g + ¬f·h.
func (m *Manager) ITE(f, g, h Node) Node {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.Not(f)
	}
	e := &m.ite[mix3(f, g, h)&uint32(len(m.ite)-1)]
	if e.f == f && e.g == g && e.h == h {
		m.hits++
		return e.r
	}
	m.misses++
	lf, lg, lh := m.level[f], m.level[g], m.level[h]
	level := lf
	if lg < level {
		level = lg
	}
	if lh < level {
		level = lh
	}
	flo, fhi := f, f
	if lf == level {
		flo, fhi = unpack(m.lohi[f])
	}
	glo, ghi := g, g
	if lg == level {
		glo, ghi = unpack(m.lohi[g])
	}
	hlo, hhi := h, h
	if lh == level {
		hlo, hhi = unpack(m.lohi[h])
	}
	r := m.mk(level, m.ITE(flo, glo, hlo), m.ITE(fhi, ghi, hhi))
	if e.f != 0 {
		m.overwrites++
	}
	*e = iteEntry{f: f, g: g, h: h, r: r}
	return r
}

// Restrict returns n with variable v fixed to val.
func (m *Manager) Restrict(n Node, v int, val bool) Node {
	if n <= True {
		return n
	}
	ln := m.level[n]
	if ln > int32(v) {
		return n
	}
	op := opRestrictF
	if val {
		op = opRestrictT
	}
	e := &m.unary[mix3(n, Node(op), Node(v))&uint32(len(m.unary)-1)]
	if e.a == n && e.op == op && e.arg == int32(v) {
		m.hits++
		return e.r
	}
	m.misses++
	lo, hi := unpack(m.lohi[n])
	var r Node
	if ln == int32(v) {
		if val {
			r = hi
		} else {
			r = lo
		}
	} else {
		r = m.mk(ln, m.Restrict(lo, v, val), m.Restrict(hi, v, val))
	}
	if e.a != 0 {
		m.overwrites++
	}
	*e = unaryEntry{a: n, r: r, arg: int32(v), op: op}
	return r
}

// Exists existentially quantifies variable v out of n.
func (m *Manager) Exists(n Node, v int) Node {
	if n <= True {
		return n
	}
	ln := m.level[n]
	if ln > int32(v) {
		return n
	}
	e := &m.unary[mix3(n, Node(opExists), Node(v))&uint32(len(m.unary)-1)]
	if e.a == n && e.op == opExists && e.arg == int32(v) {
		m.hits++
		return e.r
	}
	m.misses++
	lo, hi := unpack(m.lohi[n])
	var r Node
	if ln == int32(v) {
		r = m.Or(lo, hi)
	} else {
		r = m.mk(ln, m.Exists(lo, v), m.Exists(hi, v))
	}
	if e.a != 0 {
		m.overwrites++
	}
	*e = unaryEntry{a: n, r: r, arg: int32(v), op: opExists}
	return r
}

// ExistsMany existentially quantifies each listed variable out of n.
func (m *Manager) ExistsMany(n Node, vars []int) Node {
	for _, v := range vars {
		n = m.Exists(n, v)
	}
	return n
}

// Eval evaluates n under a complete assignment (indexed by variable).
func (m *Manager) Eval(n Node, assign []bool) bool {
	for n > True {
		lo, hi := unpack(m.lohi[n])
		if assign[m.level[n]] {
			n = hi
		} else {
			n = lo
		}
	}
	return n == True
}

// SatCount returns the number of satisfying assignments of n over all
// NumVars variables, as a float64 (exact for counts below 2^53).
func (m *Manager) SatCount(n Node) float64 {
	return m.satCountRec(n) * pow2(int(m.level[n]))
}

func (m *Manager) satCountRec(n Node) float64 {
	if n == False {
		return 0
	}
	if n == True {
		return 1
	}
	e := &m.sat[mix3(n, 0, 0)&uint32(len(m.sat)-1)]
	if e.n == n {
		m.hits++
		return e.c
	}
	m.misses++
	ln := m.level[n]
	nlo, nhi := unpack(m.lohi[n])
	lo := m.satCountRec(nlo) * pow2(int(m.level[nlo]-ln-1))
	hi := m.satCountRec(nhi) * pow2(int(m.level[nhi]-ln-1))
	c := lo + hi
	if e.n != 0 {
		m.overwrites++
	}
	*e = satEntry{n: n, c: c}
	return c
}

func pow2(k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= 2
	}
	return r
}

// AnySat returns one satisfying assignment of n (indexed by variable), or
// false if n is unsatisfiable. Variables not on the chosen path are false.
func (m *Manager) AnySat(n Node) ([]bool, bool) {
	if n == False {
		return nil, false
	}
	assign := make([]bool, m.nvars)
	for n > True {
		lo, hi := unpack(m.lohi[n])
		if hi != False {
			assign[m.level[n]] = true
			n = hi
		} else {
			n = lo
		}
	}
	return assign, true
}

// Support returns the sorted set of variables n depends on.
func (m *Manager) Support(n Node) []int {
	seen := make(map[Node]bool)
	vars := make(map[int]bool)
	var walk func(Node)
	walk = func(x Node) {
		if x <= True || seen[x] {
			return
		}
		seen[x] = true
		vars[int(m.level[x])] = true
		lo, hi := unpack(m.lohi[x])
		walk(lo)
		walk(hi)
	}
	walk(n)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// NodeCount returns the number of distinct internal nodes reachable from n.
func (m *Manager) NodeCount(n Node) int {
	if n <= True {
		return 0
	}
	seen := make(map[Node]bool)
	var walk func(Node)
	walk = func(x Node) {
		if x <= True || seen[x] {
			return
		}
		seen[x] = true
		lo, hi := unpack(m.lohi[x])
		walk(lo)
		walk(hi)
	}
	walk(n)
	return len(seen)
}

// Stats is a point-in-time snapshot of a manager's storage and op-cache
// behaviour. Counters are cumulative over the manager's lifetime.
type Stats struct {
	Nodes       int // live nodes, including terminals and the seed prefix
	SeedNodes   int
	UniqueSlots int     // unique-table capacity
	LoadFactor  float64 // Nodes / UniqueSlots

	CacheHits       uint64 // op-cache probes answered without recursion
	CacheMisses     uint64 // probes that fell through to the recursion
	CacheOverwrites uint64 // stores that evicted a colliding entry
}

// Stats reports the manager's current storage and cache counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		Nodes:           len(m.level),
		SeedNodes:       int(m.seedLen),
		UniqueSlots:     len(m.table),
		CacheHits:       m.hits,
		CacheMisses:     m.misses,
		CacheOverwrites: m.overwrites,
	}
	if s.UniqueSlots > 0 {
		s.LoadFactor = float64(s.Nodes) / float64(s.UniqueSlots)
	}
	return s
}

// Close releases the manager's unique table and operation caches so a
// long-lived process can reclaim per-manager memory deterministically
// (node tables only grow; the GC cannot shrink a live manager). The
// manager must not be used afterwards: any operation will panic on the
// nil tables, which turns use-after-close into a loud bug instead of a
// silent corruption. Close is idempotent.
func (m *Manager) Close() {
	m.level, m.lohi, m.table = nil, nil, nil
	m.ite, m.apply2, m.unary, m.sat = nil, nil, nil, nil
}
