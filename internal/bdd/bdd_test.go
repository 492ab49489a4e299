package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New(4)
	if m.Const(true) != True || m.Const(false) != False {
		t.Fatal("constants wrong")
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("not of terminals wrong")
	}
	// A fresh manager holds the two terminals plus the seeded
	// single-variable diagrams (Var/NVar per variable).
	if want := 2 + 2*4; m.Size() != want {
		t.Fatalf("fresh manager size = %d, want %d", m.Size(), want)
	}
	if int(m.seedLen) != m.Size() {
		t.Fatalf("seed prefix %d != fresh size %d", m.seedLen, m.Size())
	}
	if m.Var(2) != Node(2+2*2) || m.NVar(2) != Node(3+2*2) {
		t.Fatal("seeded variable handles not at canonical indices")
	}
}

func TestVarBasics(t *testing.T) {
	m := New(3)
	x, y := m.Var(0), m.Var(1)
	if x == y {
		t.Fatal("distinct variables shared a node")
	}
	if m.Var(0) != x {
		t.Fatal("Var not canonical")
	}
	if m.And(x, x) != x || m.Or(x, x) != x {
		t.Fatal("idempotence failed")
	}
	if m.And(x, m.Not(x)) != False {
		t.Fatal("x AND NOT x != false")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Fatal("x OR NOT x != true")
	}
	if m.Xor(x, x) != False {
		t.Fatal("x XOR x != false")
	}
}

func TestCanonicalEquality(t *testing.T) {
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// De Morgan: !(a & b) == !a | !b
	lhs := m.Not(m.And(a, b))
	rhs := m.Or(m.Not(a), m.Not(b))
	if lhs != rhs {
		t.Fatal("De Morgan canonical equality failed")
	}
	// Distribution: a & (b | c) == (a&b) | (a&c)
	if m.And(a, m.Or(b, c)) != m.Or(m.And(a, b), m.And(a, c)) {
		t.Fatal("distribution canonical equality failed")
	}
	// Commutativity and associativity.
	if m.And(m.And(a, b), c) != m.And(a, m.And(c, b)) {
		t.Fatal("associativity/commutativity failed")
	}
}

func TestITE(t *testing.T) {
	m := New(3)
	f, g, h := m.Var(0), m.Var(1), m.Var(2)
	ite := m.ITE(f, g, h)
	want := m.Or(m.And(f, g), m.And(m.Not(f), h))
	if ite != want {
		t.Fatal("ITE != f g + !f h")
	}
	if m.ITE(f, True, False) != f {
		t.Fatal("ITE(f,1,0) != f")
	}
	if m.ITE(f, False, True) != m.Not(f) {
		t.Fatal("ITE(f,0,1) != !f")
	}
}

func TestRestrict(t *testing.T) {
	m := New(3)
	x, y := m.Var(0), m.Var(1)
	f := m.Or(m.And(x, y), m.And(m.Not(x), m.Not(y)))
	if m.Restrict(f, 0, true) != y {
		t.Fatal("restrict x=1 should give y")
	}
	if m.Restrict(f, 0, false) != m.Not(y) {
		t.Fatal("restrict x=0 should give !y")
	}
	if m.Restrict(f, 2, true) != f {
		t.Fatal("restrict on absent variable should be identity")
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	x, y := m.Var(0), m.Var(1)
	f := m.And(x, y)
	if m.Exists(f, 0) != y {
		t.Fatal("exists x. x&y should be y")
	}
	g := m.Xor(x, y)
	if m.Exists(g, 1) != True {
		t.Fatal("exists y. x^y should be true")
	}
	if m.ExistsMany(f, []int{0, 1}) != True {
		t.Fatal("exists x,y. x&y should be true")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	m := New(4)
	a, b, c, d := m.Var(0), m.Var(1), m.Var(2), m.Var(3)
	f := m.Or(m.And(a, m.Not(b)), m.Xor(c, d))
	for bits := 0; bits < 16; bits++ {
		asg := []bool{bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0}
		want := (asg[0] && !asg[1]) || (asg[2] != asg[3])
		if got := m.Eval(f, asg); got != want {
			t.Fatalf("Eval(%v) = %v, want %v", asg, got, want)
		}
	}
}

func TestSatCount(t *testing.T) {
	m := New(4)
	x := m.Var(0)
	if got := m.SatCount(x); got != 8 {
		t.Fatalf("SatCount(x) over 4 vars = %v, want 8", got)
	}
	if got := m.SatCount(True); got != 16 {
		t.Fatalf("SatCount(true) = %v, want 16", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Fatalf("SatCount(false) = %v, want 0", got)
	}
	f := m.And(m.Var(0), m.And(m.Var(1), m.Var(2)))
	if got := m.SatCount(f); got != 2 {
		t.Fatalf("SatCount(x0&x1&x2) = %v, want 2", got)
	}
}

func TestAnySat(t *testing.T) {
	m := New(3)
	f := m.And(m.Var(0), m.Not(m.Var(2)))
	asg, ok := m.AnySat(f)
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if !m.Eval(f, asg) {
		t.Fatalf("AnySat returned non-satisfying assignment %v", asg)
	}
	if _, ok := m.AnySat(False); ok {
		t.Fatal("false reported satisfiable")
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.And(m.Var(1), m.Or(m.Var(3), m.Var(4)))
	sup := m.Support(f)
	want := []int{1, 3, 4}
	if len(sup) != len(want) {
		t.Fatalf("Support = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("Support = %v, want %v", sup, want)
		}
	}
}

func TestEqConstAndVec(t *testing.T) {
	m := New(8)
	vars := []int{0, 1, 2, 3}
	f := m.EqConst(vars, 10) // 1010 -> bit0=0 bit1=1 bit2=0 bit3=1
	asg := make([]bool, 8)
	asg[1], asg[3] = true, true
	if !m.Eval(f, asg) {
		t.Fatal("EqConst rejected its own value")
	}
	asg[0] = true
	if m.Eval(f, asg) {
		t.Fatal("EqConst accepted wrong value")
	}
	if got := m.SatCount(f); got != 16 { // 4 free vars
		t.Fatalf("EqConst satcount = %v, want 16", got)
	}
	cv := m.ConstVec(10, 4)
	if v, ok := VecValue(cv); !ok || v != 10 {
		t.Fatalf("ConstVec/VecValue roundtrip got %v,%v", v, ok)
	}
}

func TestVecOps(t *testing.T) {
	m := New(6)
	a := m.VarVec([]int{0, 1, 2})
	b := m.ConstVec(5, 3)
	eq := m.EqVec(a, b)
	if eq != m.EqConst([]int{0, 1, 2}, 5) {
		t.Fatal("EqVec disagrees with EqConst")
	}
	g := m.Var(5)
	sel := m.ITEVec(g, a, b)
	// Under g=true the selected vector equals a.
	for i := range sel {
		if m.Restrict(sel[i], 5, true) != a[i] {
			t.Fatal("ITEVec true branch wrong")
		}
		if m.Restrict(sel[i], 5, false) != b[i] {
			t.Fatal("ITEVec false branch wrong")
		}
	}
}

// randomExpr builds a random boolean expression both as a BDD and as a
// closure, to cross-check semantics.
func randomExpr(m *Manager, rng *rand.Rand, depth int) (Node, func([]bool) bool) {
	if depth == 0 || rng.Intn(4) == 0 {
		v := rng.Intn(m.NumVars())
		return m.Var(v), func(a []bool) bool { return a[v] }
	}
	l, lf := randomExpr(m, rng, depth-1)
	r, rf := randomExpr(m, rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(l, r), func(a []bool) bool { return lf(a) && rf(a) }
	case 1:
		return m.Or(l, r), func(a []bool) bool { return lf(a) || rf(a) }
	case 2:
		return m.Xor(l, r), func(a []bool) bool { return lf(a) != rf(a) }
	default:
		return m.Not(l), func(a []bool) bool { return !lf(a) }
	}
}

func TestRandomExprSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New(6)
	for trial := 0; trial < 200; trial++ {
		n, f := randomExpr(m, rng, 5)
		for bits := 0; bits < 64; bits++ {
			asg := make([]bool, 6)
			for i := range asg {
				asg[i] = bits&(1<<i) != 0
			}
			if m.Eval(n, asg) != f(asg) {
				t.Fatalf("trial %d: BDD disagrees with closure on %v", trial, asg)
			}
		}
	}
}

// randVec builds a width-long vector of random expressions and returns the
// matching evaluator slice. It mixes in terminals and repeated elements, the
// shapes a compiled local-preference vector is mostly made of.
func randVec(m *Manager, rng *rand.Rand, width, depth int) (Vec, []func([]bool) bool) {
	v := make(Vec, width)
	fs := make([]func([]bool) bool, width)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i], fs[i] = False, func([]bool) bool { return false }
		case 1:
			v[i], fs[i] = True, func([]bool) bool { return true }
		case 2:
			if i > 0 {
				v[i], fs[i] = v[i-1], fs[i-1]
				continue
			}
			fallthrough
		default:
			v[i], fs[i] = randomExpr(m, rng, depth)
		}
	}
	return v, fs
}

// TestVecOpsElementwiseMeaning checks ITEVec, AndVec and EqVec against what
// they mean element by element, on the closures the random vectors were built
// from, under every assignment of a 6-variable manager.
func TestVecOpsElementwiseMeaning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nv = 6
	asg := make([]bool, nv)
	for round := 0; round < 100; round++ {
		m := New(nv)
		width := 1 + rng.Intn(33)
		f, ff := randomExpr(m, rng, 4)
		g, gf := randVec(m, rng, width, 4)
		h, hf := randVec(m, rng, width, 4)
		ite, and, eq := m.ITEVec(f, g, h), m.AndVec(f, g), m.EqVec(g, h)
		for bits := 0; bits < 1<<nv; bits++ {
			for v := range asg {
				asg[v] = bits&(1<<v) != 0
			}
			fv, allEq := ff(asg), true
			for i := range g {
				gi, hi := gf[i](asg), hf[i](asg)
				want := hi
				if fv {
					want = gi
				}
				if m.Eval(ite[i], asg) != want {
					t.Fatalf("round %d: ITEVec[%d] wrong under %06b", round, i, bits)
				}
				if m.Eval(and[i], asg) != (fv && gi) {
					t.Fatalf("round %d: AndVec[%d] wrong under %06b", round, i, bits)
				}
				allEq = allEq && gi == hi
			}
			if m.Eval(eq, asg) != allEq {
				t.Fatalf("round %d: EqVec wrong under %06b", round, bits)
			}
		}
		m.Close()
	}
}

func TestQuickCanonical(t *testing.T) {
	// Property: for random 8-bit truth tables built two different ways,
	// handles must be equal iff semantics are equal.
	m := New(3)
	build := func(tt uint8) Node {
		r := False
		for bits := 0; bits < 8; bits++ {
			if tt&(1<<bits) == 0 {
				continue
			}
			term := True
			for v := 0; v < 3; v++ {
				if bits&(1<<v) != 0 {
					term = m.And(term, m.Var(v))
				} else {
					term = m.And(term, m.NVar(v))
				}
			}
			r = m.Or(r, term)
		}
		return r
	}
	prop := func(a, b uint8) bool {
		na, nb := build(a), build(b)
		return (na == nb) == (a == b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRehashGrowth(t *testing.T) {
	m := New(20)
	// Force many nodes to exercise table growth.
	f := False
	for i := 0; i < 20; i++ {
		term := True
		for j := 0; j <= i; j++ {
			if (i+j)%2 == 0 {
				term = m.And(term, m.Var(j))
			} else {
				term = m.And(term, m.NVar(j))
			}
		}
		f = m.Or(f, term)
	}
	if m.NodeCount(f) == 0 {
		t.Fatal("expected nontrivial BDD")
	}
	// Canonicality must survive rehashing: rebuild and compare.
	g := False
	for i := 19; i >= 0; i-- {
		term := True
		for j := i; j >= 0; j-- {
			if (i+j)%2 == 0 {
				term = m.And(term, m.Var(j))
			} else {
				term = m.And(term, m.NVar(j))
			}
		}
		g = m.Or(g, term)
	}
	if f != g {
		t.Fatal("canonical equality lost after table growth")
	}
}
