package protocols

import (
	"fmt"
	"sort"
	"strings"

	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// Community is a BGP community value, conventionally written asn:tag and
// packed as asn<<16|tag.
type Community uint32

// MakeCommunity packs asn:tag into a Community.
func MakeCommunity(asn, tag uint16) Community {
	return Community(uint32(asn)<<16 | uint32(tag))
}

func (c Community) String() string { return fmt.Sprintf("%d:%d", c>>16, c&0xffff) }

// CommSet is an immutable, sorted, duplicate-free set of communities.
// Treat values as read-only; use With/Without to derive new sets.
type CommSet []Community

// NewCommSet builds a set from arbitrary values.
func NewCommSet(cs ...Community) CommSet {
	out := append(CommSet(nil), cs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, c := range out {
		if i == 0 || c != out[i-1] {
			dedup = append(dedup, c)
		}
	}
	return dedup
}

// Has reports membership.
func (s CommSet) Has(c Community) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= c })
	return i < len(s) && s[i] == c
}

// With returns a new set including c.
func (s CommSet) With(c Community) CommSet {
	if s.Has(c) {
		return s
	}
	return NewCommSet(append(append(CommSet(nil), s...), c)...)
}

// Without returns a new set excluding c.
func (s CommSet) Without(c Community) CommSet {
	if !s.Has(c) {
		return s
	}
	out := make(CommSet, 0, len(s)-1)
	for _, x := range s {
		if x != c {
			out = append(out, x)
		}
	}
	return out
}

// Equal reports set equality.
func (s CommSet) Equal(t CommSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s CommSet) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// BGPAttr is the eBGP attribute of §3.2 (Figure 5): a local preference, a
// community set, and the AS path as a list of node IDs (each router runs its
// own AS). The path excludes the holder and lists the sender chain back to
// the destination, most recent hop first.
type BGPAttr struct {
	LP    uint32
	Comms CommSet
	Path  []topo.NodeID
	// FromIBGP marks a route learned over an iBGP session; such routes are
	// not re-advertised to other iBGP peers (paper §6).
	FromIBGP bool
}

// Clone returns a deep copy safe for mutation.
func (a *BGPAttr) Clone() *BGPAttr {
	return &BGPAttr{
		LP:       a.LP,
		Comms:    append(CommSet(nil), a.Comms...),
		Path:     append([]topo.NodeID(nil), a.Path...),
		FromIBGP: a.FromIBGP,
	}
}

// HasLoop reports whether node u already appears on the AS path.
func (a *BGPAttr) HasLoop(u topo.NodeID) bool {
	for _, x := range a.Path {
		if x == u {
			return true
		}
	}
	return false
}

func (a *BGPAttr) String() string {
	return fmt.Sprintf("bgp(lp=%d,comms=%v,path=%v)", a.LP, a.Comms, a.Path)
}

// DefaultLocalPref is the BGP default local preference.
const DefaultLocalPref uint32 = 100

// PolicyFunc transforms an attribute crossing edge e, the i-th of the
// instance graph's Edges(), returning nil to drop the route. Implementations
// must not mutate the argument.
type PolicyFunc func(i int, e topo.Edge, a *BGPAttr) *BGPAttr

// BGP models eBGP. For an SRP edge e = (u, v) (u learns from v), Transfer
// applies, in order: loop prevention (reject if u is on the path), the
// sender's Export policy, the AS-path extension with v, and the receiver's
// Import policy. Comparison prefers higher local preference, then shorter
// AS path.
type BGP struct {
	// Export is v's export policy toward u for edge (u, v); nil = permit all.
	Export PolicyFunc
	// Import is u's import policy from v for edge (u, v); nil = permit all.
	Import PolicyFunc
	// DisableLoopPrevention turns off the implicit loop check. The paper's
	// BGP-effective theory exists precisely because this mechanism breaks
	// transfer-equivalence; disabling it is used in tests and ablations.
	DisableLoopPrevention bool
	// IBGP marks edges carrying iBGP sessions (same AS on both ends): the
	// AS path is not extended, local preference crosses the session (it is
	// internal), and routes learned from iBGP are not re-advertised to
	// other iBGP peers — the §6 simplification that lets iBGP neighbors
	// compress together.
	IBGP []bool
}

// marked reads a per-edge flag vector, nil meaning no edge is marked.
func marked(v []bool, i int) bool { return v != nil && v[i] }

// Origin implements srp.Protocol: ad = (100, {}, []).
func (p *BGP) Origin() srp.Attr {
	return &BGPAttr{LP: DefaultLocalPref}
}

// Compare implements srp.Protocol: local preference descending, then AS
// path length ascending.
func (p *BGP) Compare(x, y srp.Attr) int {
	a, b := x.(*BGPAttr), y.(*BGPAttr)
	if a.LP != b.LP {
		if a.LP > b.LP {
			return -1
		}
		return 1
	}
	return len(a.Path) - len(b.Path)
}

// Equal implements srp.Protocol.
func (p *BGP) Equal(x, y srp.Attr) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	a, b := x.(*BGPAttr), y.(*BGPAttr)
	if a.LP != b.LP || a.FromIBGP != b.FromIBGP || !a.Comms.Equal(b.Comms) || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// Transfer implements srp.Protocol.
func (p *BGP) Transfer(i int, e topo.Edge, x srp.Attr) srp.Attr {
	if x == nil {
		return nil
	}
	a := x.(*BGPAttr)
	ibgp := marked(p.IBGP, i)
	if ibgp && a.FromIBGP {
		return nil // iBGP-learned routes are not re-advertised over iBGP
	}
	if !p.DisableLoopPrevention && a.HasLoop(e.U) {
		return nil
	}
	cur := a
	if p.Export != nil {
		cur = p.Export(i, e, cur)
		if cur == nil {
			return nil
		}
	}
	next := cur.Clone()
	if ibgp {
		next.FromIBGP = true
	} else {
		next.Path = append([]topo.NodeID{e.V}, next.Path...)
		next.FromIBGP = false
		// LOCAL_PREF is not transitive across eBGP sessions: the receiver
		// starts from the default and only its own import policy may change
		// it. This also makes Theorem 4.4's prefs(v) bound — the values v's
		// own policies can assign — exact for eBGP.
		next.LP = DefaultLocalPref
	}
	if p.Import != nil {
		out := p.Import(i, e, next)
		if out == nil {
			return nil
		}
		return out
	}
	return next
}

// MapNodes implements srp.NodeMapper: the attribute abstraction h for BGP
// maps the concrete AS path through the topology function f (paper §4.3).
func (p *BGP) MapNodes(x srp.Attr, f func(topo.NodeID) topo.NodeID) srp.Attr {
	if x == nil {
		return nil
	}
	a := x.(*BGPAttr).Clone()
	for i, n := range a.Path {
		a.Path[i] = f(n)
	}
	return a
}
