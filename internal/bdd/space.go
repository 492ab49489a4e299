package bdd

// Space is a shared canonical constant/leaf space: the seed prefix
// (terminals plus every single-variable diagram) and the unique table that
// indexes it, built once and stamped into any number of Managers. Workers
// that each need a private manager over the same variable universe get a
// lightweight view — NewManager copies three flat arrays instead of
// re-hashing 2+2n seed nodes — while the seed handles stay globally
// canonical: Var(i) and ¬Var(i) are the same Node values in every manager of
// the space (and indeed in every manager with the same variable count).
//
// A Space is immutable after construction and safe for concurrent use; the
// Managers it produces follow the usual single-goroutine ownership contract.
type Space struct {
	nvars     int32
	seedLevel []int32
	seedLohi  []uint64
	seedTable []int32
	seedMask  uint32
}

// NewSpace builds the canonical seed space for numVars variables.
func NewSpace(numVars int) *Space {
	m := newShell(numVars, templateCacheBits)
	m.seed()
	return &Space{
		nvars:     m.nvars,
		seedLevel: m.level,
		seedLohi:  m.lohi,
		seedTable: m.table,
		seedMask:  m.mask,
	}
}

// NewManager stamps out a manager over the space. The new manager starts
// with the space's seed prefix and a private copy of the seeded unique table.
func (s *Space) NewManager() *Manager {
	m := newShell(int(s.nvars), cacheBits)
	m.seedLen = int32(len(s.seedLevel))
	m.level = append(make([]int32, 0, len(s.seedLevel)+1024), s.seedLevel...)
	m.lohi = append(make([]uint64, 0, len(s.seedLohi)+1024), s.seedLohi...)
	m.table = append([]int32(nil), s.seedTable...)
	m.mask = s.seedMask
	return m
}
