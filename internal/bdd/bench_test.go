package bdd_test

import (
	"testing"

	"bonsai/internal/bdd"
)

// buildAdder builds the sum and final carry of an nbits ripple-carry adder
// over interleaved operand variables — a standard ITE/apply-heavy BDD
// workload whose intermediate diagrams force deep recursion and many cache
// probes.
func buildAdder(m *bdd.Manager, nbits int) (sum, carry bdd.Node) {
	carry = bdd.False
	for j := 0; j < nbits; j++ {
		x, y := m.Var(2*j), m.Var(2*j+1)
		sum = m.Xor(m.Xor(x, y), carry)
		carry = m.Or(m.And(x, y), m.And(carry, m.Or(x, y)))
	}
	return sum, carry
}

// BenchmarkITE measures the ITE hot path: rebuilding a carry chain expressed
// purely through ITE calls on a warm manager, so nearly every call is a
// cache-and-unique-table exercise.
func BenchmarkITE(b *testing.B) {
	const nbits = 64
	m := bdd.New(2 * nbits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		carry := bdd.False
		for j := 0; j < nbits; j++ {
			x, y := m.Var(2*j), m.Var(2*j+1)
			// carry' = ITE(x, ITE(y, 1, carry), ITE(y, carry, 0))
			carry = m.ITE(x, m.ITE(y, bdd.True, carry), m.ITE(y, carry, bdd.False))
		}
		if carry == bdd.False {
			b.Fatal("carry collapsed")
		}
	}
}

// BenchmarkApply2 measures the binary-apply hot path (And/Or/Xor) via the
// full ripple-carry adder on a warm manager.
func BenchmarkApply2(b *testing.B) {
	const nbits = 64
	m := bdd.New(2 * nbits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, carry := buildAdder(m, nbits); carry == bdd.False {
			b.Fatal("carry collapsed")
		}
	}
}

// BenchmarkAdderColdManager measures the whole stack — manager construction,
// unique-table growth, operation caches and a SatCount — with nothing warm,
// the shape of work NewCompiler-per-query verification performs.
func BenchmarkAdderColdManager(b *testing.B) {
	const nbits = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bdd.New(2 * nbits)
		_, carry := buildAdder(m, nbits)
		if m.SatCount(carry) == 0 {
			b.Fatal("unsatisfiable carry")
		}
	}
}

// BenchmarkUniqueTableGrowth measures mk throughput while the unique table
// repeatedly doubles: a long disjunction of distinct minterms creates fresh
// nodes at every step.
func BenchmarkUniqueTableGrowth(b *testing.B) {
	const nvars = 24
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bdd.New(nvars)
		f := bdd.False
		for t := 0; t < 1<<12; t++ {
			minterm := bdd.True
			for v := 0; v < nvars; v += 2 {
				if t&(1<<(v/2)) != 0 {
					minterm = m.And(minterm, m.Var(v))
				} else {
					minterm = m.And(minterm, m.NVar(v))
				}
			}
			f = m.Or(f, minterm)
		}
		if f == bdd.False {
			b.Fatal("disjunction collapsed")
		}
		b.ReportMetric(float64(m.Size()), "nodes")
	}
}

// BenchmarkSatCount measures the lossy sat-count cache on a wide diagram.
func BenchmarkSatCount(b *testing.B) {
	const nbits = 48
	m := bdd.New(2 * nbits)
	_, carry := buildAdder(m, nbits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.SatCount(carry) == 0 {
			b.Fatal("unsatisfiable carry")
		}
	}
}
