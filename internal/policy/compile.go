package policy

import (
	"fmt"
	"net/netip"
	"sort"

	"bonsai/internal/bdd"
	"bonsai/internal/protocols"
)

// LPBits is the width of the symbolic local-preference encoding. The paper
// uses the full 32-bit value (Figure 10); 16 bits cover every value used in
// practice (default 100, policy values in the hundreds) and keep diagrams
// small. Compilation panics on larger configured values.
const LPBits = 16

// Compiler translates route maps into canonical BDD relations over a fixed
// community universe, specialised to one destination prefix. Because the
// underlying bdd.Manager hash-conses, two route maps (or route-map
// compositions) are semantically equivalent for that destination iff their
// compiled roots are the same Node — the O(1) equivalence check Bonsai's
// refinement loop depends on.
//
// Variable layout (interleaved input/output for compact diagrams):
//
//	community i: input var 2i, output var 2i+1
//	local-pref bit j: input var 2C+2j, output var 2C+2j+1
//	drop flag: output var 2C+2·LPBits
//
// where C is the size of the community universe.
type Compiler struct {
	M       *bdd.Manager
	comms   []protocols.Community
	commIdx map[protocols.Community]int

	// Cache is a consumer-owned slot for per-compiler memo state
	// (internal/build hangs its edge-relation cache here). It follows the
	// compiler's single-goroutine ownership contract and dies with the
	// compiler, so no shared registry pins it.
	Cache any
}

// Space is a shared compilation universe: the sorted community vocabulary,
// its index, and the canonical BDD constant space over the derived variable
// layout. Building it once and stamping per-worker compilers from it keeps
// every worker's terminals, variable diagrams and variable layout globally
// canonical while each worker owns a private manager (no locking).
type Space struct {
	comms   []protocols.Community
	commIdx map[protocols.Community]int
	bs      *bdd.Space
}

// NewSpace builds the shared compilation universe for the given community
// set (deduplicated and sorted, like NewCompiler).
func NewSpace(universe []protocols.Community) *Space {
	comms := append([]protocols.Community(nil), universe...)
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	dedup := comms[:0]
	for i, c := range comms {
		if i == 0 || c != comms[i-1] {
			dedup = append(dedup, c)
		}
	}
	comms = dedup
	s := &Space{
		comms:   comms,
		commIdx: make(map[protocols.Community]int, len(comms)),
	}
	for i, cm := range comms {
		s.commIdx[cm] = i
	}
	s.bs = bdd.NewSpace(2*len(comms) + 2*LPBits + 1)
	return s
}

// NewCompiler stamps out a compiler over the shared space. The community
// slice and index are shared read-only; the BDD manager is a private view
// seeded from the space's canonical constant prefix (see bdd.Space).
func (s *Space) NewCompiler() *Compiler {
	return &Compiler{
		M:       s.bs.NewManager(),
		comms:   s.comms,
		commIdx: s.commIdx,
	}
}

// NewCompiler creates a compiler over the given community universe. Passing
// only the communities that are ever matched (rather than ever set)
// implements the unused-tag-erasing attribute abstraction
// h(lp, tags, path) = (lp, tags − unused, f(path)) from §8.
//
// The result is a standalone compiler (no shared Space); handles still agree
// with space-stamped compilers over the same universe because the seed prefix
// is canonical either way.
func NewCompiler(universe []protocols.Community) *Compiler {
	comms := append([]protocols.Community(nil), universe...)
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	dedup := comms[:0]
	for i, c := range comms {
		if i == 0 || c != comms[i-1] {
			dedup = append(dedup, c)
		}
	}
	comms = dedup
	c := &Compiler{
		comms:   comms,
		commIdx: make(map[protocols.Community]int, len(comms)),
	}
	for i, cm := range comms {
		c.commIdx[cm] = i
	}
	c.M = bdd.New(2*len(comms) + 2*LPBits + 1)
	return c
}

func (c *Compiler) commIn(i int) int  { return 2 * i }
func (c *Compiler) commOut(i int) int { return 2*i + 1 }
func (c *Compiler) lpIn(j int) int    { return 2*len(c.comms) + 2*j }
func (c *Compiler) lpOut(j int) int   { return 2*len(c.comms) + 2*j + 1 }
func (c *Compiler) dropOut() int      { return 2*len(c.comms) + 2*LPBits }

// state is the symbolic evaluator state: each field is a function of the
// input variables describing the attribute after the policy steps applied
// so far.
type state struct {
	comm []bdd.Node // community membership functions
	lp   bdd.Vec    // local preference bits
	drop bdd.Node   // inputs on which the route has been denied
}

// initialState returns the identity state: outputs mirror inputs.
func (c *Compiler) initialState() state {
	st := state{
		comm: make([]bdd.Node, len(c.comms)),
		lp:   make(bdd.Vec, LPBits),
		drop: bdd.False,
	}
	for i := range c.comms {
		st.comm[i] = c.M.Var(c.commIn(i))
	}
	for j := 0; j < LPBits; j++ {
		st.lp[j] = c.M.Var(c.lpIn(j))
	}
	return st
}

// evalRouteMap symbolically executes the named route map from state st,
// specialised to destination prefix pfx. An empty name is the identity.
func (c *Compiler) evalRouteMap(env *Env, name string, pfx netip.Prefix, st state) state {
	if name == "" {
		return st
	}
	rm, ok := env.RouteMaps[name]
	if !ok {
		panic(fmt.Sprintf("policy: unknown route map %q", name))
	}
	m := c.M
	// remaining = inputs that reached this clause (not yet matched, not
	// already dropped upstream).
	remaining := m.Not(st.drop)
	next := st
	next.comm = append([]bdd.Node(nil), st.comm...)
	next.lp = append(bdd.Vec(nil), st.lp...)
	for i := range rm.Clauses {
		cl := &rm.Clauses[i]
		cond := c.matchCond(env, cl, pfx, st)
		guard := m.And(remaining, cond)
		remaining = m.And(remaining, m.Not(cond))
		if guard == bdd.False {
			continue
		}
		if cl.Action == Deny {
			next.drop = m.Or(next.drop, guard)
			continue
		}
		for _, s := range cl.Sets {
			switch s.Kind {
			case SetLocalPref:
				if s.Value >= 1<<LPBits {
					panic(fmt.Sprintf("policy: local-preference %d exceeds %d bits", s.Value, LPBits))
				}
				next.lp = m.ITEVec(guard, c.M.ConstVec(uint64(s.Value), LPBits), next.lp)
			case AddCommunity:
				if idx, ok := c.commIdx[s.Comm]; ok {
					next.comm[idx] = m.Or(next.comm[idx], guard)
				}
			case DeleteCommunity:
				if idx, ok := c.commIdx[s.Comm]; ok {
					next.comm[idx] = m.And(next.comm[idx], m.Not(guard))
				}
			}
		}
	}
	// Implicit deny for whatever matched no clause.
	next.drop = m.Or(next.drop, remaining)
	return next
}

// matchCond builds the BDD (over input variables, via the current state) of
// a clause's match conditions. Prefix matches specialise to constants.
func (c *Compiler) matchCond(env *Env, cl *Clause, pfx netip.Prefix, st state) bdd.Node {
	m := c.M
	cond := bdd.True
	for _, mt := range cl.Matches {
		switch mt.Kind {
		case MatchCommunity:
			l, ok := env.CommunityLists[mt.Arg]
			if !ok {
				panic(fmt.Sprintf("policy: unknown community list %q", mt.Arg))
			}
			any := bdd.False
			for _, cm := range l.Communities {
				if idx, ok := c.commIdx[cm]; ok {
					any = m.Or(any, st.comm[idx])
				}
			}
			cond = m.And(cond, any)
		case MatchPrefix:
			l, ok := env.PrefixLists[mt.Arg]
			if !ok {
				panic(fmt.Sprintf("policy: unknown prefix list %q", mt.Arg))
			}
			cond = m.And(cond, m.Const(l.Matches(pfx)))
		}
	}
	return cond
}

// relation converts a final symbolic state into the canonical input/output
// relation BDD (Figure 10): output variables are constrained to equal the
// computed functions of the inputs; dropped inputs force the drop flag and
// leave the other outputs unconstrained... they are instead forced to zero
// so that the relation stays a total function and remains canonical.
func (c *Compiler) relation(st state) bdd.Node {
	m := c.M
	keep := m.Not(st.drop)
	rel := m.Equiv(m.Var(c.dropOut()), st.drop)
	// Mask every output function by keep and equate it with its output
	// variable.
	vals := make(bdd.Vec, 0, len(c.comms)+LPBits)
	vals = append(vals, st.comm...)
	vals = append(vals, st.lp...)
	outs := make([]int, 0, len(c.comms)+LPBits)
	for i := range c.comms {
		outs = append(outs, c.commOut(i))
	}
	for j := 0; j < LPBits; j++ {
		outs = append(outs, c.lpOut(j))
	}
	masked := m.AndVec(keep, vals)
	return m.And(rel, m.EqVec(m.VarVec(outs), masked))
}

// CompileRouteMap compiles one route map for destination pfx into its
// canonical relation BDD.
func (c *Compiler) CompileRouteMap(env *Env, name string, pfx netip.Prefix) bdd.Node {
	return c.relation(c.evalRouteMap(env, name, pfx, c.initialState()))
}

// CompileEdge compiles the full BGP transfer policy of an SRP edge
// (u learns from v): v's export route map followed by u's import route map,
// as one composed relation. Two edges are policy-equivalent for this
// destination iff their CompileEdge results are equal. This form matches
// iBGP sessions, where local preference crosses the session untouched.
func (c *Compiler) CompileEdge(exportEnv *Env, exportMap string, importEnv *Env, importMap string, pfx netip.Prefix) bdd.Node {
	st := c.initialState()
	st = c.evalRouteMap(exportEnv, exportMap, pfx, st)
	st = c.evalRouteMap(importEnv, importMap, pfx, st)
	return c.relation(st)
}

// CompileEdgeEBGP compiles the transfer policy of an eBGP edge: like
// CompileEdge, but with the local preference reset to the default between
// the export and import stages, mirroring that LOCAL_PREF is not transitive
// across eBGP sessions. Keys built from the plain composition would be
// unsound here: two edges whose compositions agree under preference
// passthrough can differ once the export stage's preference is discarded.
func (c *Compiler) CompileEdgeEBGP(exportEnv *Env, exportMap string, importEnv *Env, importMap string, pfx netip.Prefix) bdd.Node {
	st := c.initialState()
	st = c.evalRouteMap(exportEnv, exportMap, pfx, st)
	st.lp = c.M.ConstVec(uint64(protocols.DefaultLocalPref), LPBits)
	st = c.evalRouteMap(importEnv, importMap, pfx, st)
	return c.relation(st)
}

// IdentityRelation is the relation of the empty policy (permit unchanged).
func (c *Compiler) IdentityRelation() bdd.Node {
	return c.relation(c.initialState())
}

// AlwaysDrops reports whether a compiled relation denies every input.
func (c *Compiler) AlwaysDrops(rel bdd.Node) bool {
	// The relation forces dropOut <-> dropFn(inputs); restricting the drop
	// output to false leaves inputs that survive. If none do, the policy
	// always drops.
	return c.M.Restrict(rel, c.dropOut(), false) == bdd.False
}

// Apply runs a compiled relation on a concrete attribute, for cross-checking
// the symbolic and concrete semantics in tests. It returns the transformed
// communities and local preference, or ok=false if the route is dropped.
func (c *Compiler) Apply(rel bdd.Node, comms protocols.CommSet, lp uint32) (protocols.CommSet, uint32, bool) {
	m := c.M
	// Restrict inputs.
	n := rel
	for i, cm := range c.comms {
		n = m.Restrict(n, c.commIn(i), comms.Has(cm))
	}
	for j := 0; j < LPBits; j++ {
		n = m.Restrict(n, c.lpIn(j), lp&(1<<uint(j)) != 0)
	}
	// n is now a function of output variables with exactly one satisfying
	// assignment (the relation is a total function of the inputs).
	asg, ok := m.AnySat(n)
	if !ok {
		return nil, 0, false
	}
	if asg[c.dropOut()] {
		return nil, 0, false
	}
	var out protocols.CommSet
	for i, cm := range c.comms {
		if asg[c.commOut(i)] {
			out = out.With(cm)
		}
	}
	var lpOut uint32
	for j := 0; j < LPBits; j++ {
		if asg[c.lpOut(j)] {
			lpOut |= 1 << uint(j)
		}
	}
	return out, lpOut, true
}

// Close releases the compiler's BDD manager (unique table and operation
// caches). The compiler must not be used afterwards; Close is idempotent.
func (c *Compiler) Close() { c.M.Close() }
