package bdd

import (
	"math/rand"
	"testing"
)

// randVec builds a width-long vector of random expressions and returns the
// matching evaluator slice.
func randVec(m *Manager, rng *rand.Rand, width, depth int) (Vec, []func([]bool) bool) {
	v := make(Vec, width)
	fs := make([]func([]bool) bool, width)
	for i := range v {
		// Mix in terminals and duplicates so the batched fast paths
		// (gi==hi, constant elements, intra-batch dedup) all fire.
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

// TestVecBatchedMatchesScalar is the differential gauntlet for the batched
// vector operators: because the unique table is canonical, ITEVec, AndVec,
// and EqVec must return handles *identical* (not merely equivalent) to the
// element-wise scalar loops, across randomized vectors that exercise
// terminals, shared elements, and deep recursion.
func TestVecBatchedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		m := New(12)
		width := 1 + rng.Intn(33)
		f, _ := randomExpr(m, rng, 4)
		g, _ := randVec(m, rng, width, 4)
		h, _ := randVec(m, rng, width, 4)

		batched := m.ITEVec(f, g, h)
		for i := range g {
			if want := m.ITE(f, g[i], h[i]); batched[i] != want {
				t.Fatalf("round %d: ITEVec[%d] = %d, scalar ITE = %d", round, i, batched[i], want)
			}
		}

		av := m.AndVec(f, g)
		for i := range g {
			if want := m.And(f, g[i]); av[i] != want {
				t.Fatalf("round %d: AndVec[%d] = %d, scalar And = %d", round, i, av[i], want)
			}
		}

		eq := m.EqVec(g, h)
		want := True
		for i := range g {
			want = m.And(want, m.Equiv(g[i], h[i]))
		}
		if eq != want {
			t.Fatalf("round %d: EqVec = %d, scalar fold = %d", round, eq, want)
		}
		m.Close()
	}
}

// TestVecBatchedColdVsWarm runs the batched operator on a cold manager and
// the scalar loop on a separate warm one, checking semantic equality via
// exhaustive evaluation — this rules out results that are only identical
// because both paths consulted the same (possibly stale) op-cache entry.
func TestVecBatchedColdVsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nv = 6
	assign := make([]bool, nv)
	for round := 0; round < 50; round++ {
		seed := rng.Int63()
		m1 := New(nv)
		r1 := rand.New(rand.NewSource(seed))
		f1, _ := randomExpr(m1, r1, 4)
		g1, _ := randVec(m1, r1, 8, 4)
		h1, _ := randVec(m1, r1, 8, 4)
		batched := m1.ITEVec(f1, g1, h1)

		m2 := New(nv)
		r2 := rand.New(rand.NewSource(seed))
		f2, _ := randomExpr(m2, r2, 4)
		g2, _ := randVec(m2, r2, 8, 4)
		h2, _ := randVec(m2, r2, 8, 4)
		scalar := make(Vec, len(g2))
		for i := range g2 {
			scalar[i] = m2.ITE(f2, g2[i], h2[i])
		}

		for bits := 0; bits < 1<<nv; bits++ {
			for v := 0; v < nv; v++ {
				assign[v] = bits&(1<<v) != 0
			}
			for i := range batched {
				if m1.Eval(batched[i], assign) != m2.Eval(scalar[i], assign) {
					t.Fatalf("round %d: bit %d differs under assignment %06b", round, i, bits)
				}
			}
		}
		m1.Close()
		m2.Close()
	}
}
