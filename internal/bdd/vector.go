package bdd

// Vec is a little-endian vector of BDD functions, used to represent
// bit-vector valued outputs (such as the 32-bit local-preference in a BGP
// policy relation, paper Figure 10) symbolically.
type Vec []Node

// ConstVec returns a width-bit vector holding the constant v
// (least-significant bit first).
func (m *Manager) ConstVec(v uint64, width int) Vec {
	out := make(Vec, width)
	for i := 0; i < width; i++ {
		out[i] = m.Const(v&(1<<uint(i)) != 0)
	}
	return out
}

// VarVec returns the vector of variables vars, each as its own BDD.
func (m *Manager) VarVec(vars []int) Vec {
	out := make(Vec, len(vars))
	for i, v := range vars {
		out[i] = m.Var(v)
	}
	return out
}

// ITEVec returns the element-wise if-then-else of two vectors under guard f.
func (m *Manager) ITEVec(f Node, g, h Vec) Vec {
	if len(g) != len(h) {
		panic("bdd: ITEVec width mismatch")
	}
	out := make(Vec, len(g))
	for i := range g {
		out[i] = m.ITE(f, g[i], h[i])
	}
	return out
}

// AndVec returns the conjunction of scalar f with every element of v.
func (m *Manager) AndVec(f Node, v Vec) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = m.And(f, v[i])
	}
	return out
}

// EqVec returns the BDD asserting element-wise equality of a and b.
func (m *Manager) EqVec(a, b Vec) Node {
	if len(a) != len(b) {
		panic("bdd: EqVec width mismatch")
	}
	r := True
	for i := range a {
		r = m.And(r, m.Equiv(a[i], b[i]))
	}
	return r
}
