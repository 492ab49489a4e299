// Package policy implements the vendor-independent routing-policy IR that
// Bonsai operates over (route maps, community lists, prefix lists and ACLs),
// along with two semantics: a concrete evaluator used when simulating the
// control plane, and a symbolic compiler into BDDs used by the compression
// algorithm to decide transfer-function equivalence in O(1) (paper §5.1).
package policy

import (
	"fmt"
	"net/netip"
	"slices"

	"bonsai/internal/protocols"
)

// Action is a permit/deny verdict.
type Action int

// Actions.
const (
	Permit Action = iota
	Deny
)

func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// PrefixEntry is one line of a prefix list: action plus a prefix with
// optional ge/le length bounds (0 means exact-match-only on that side).
type PrefixEntry struct {
	Action Action       `json:"action"`
	Prefix netip.Prefix `json:"prefix"`
	Ge     int          `json:"ge,omitempty"`
	Le     int          `json:"le,omitempty"`
}

// matches reports whether a destination prefix matches this entry.
func (e PrefixEntry) matches(p netip.Prefix) bool {
	if !e.Prefix.Contains(p.Addr()) && e.Prefix != p {
		return false
	}
	if p.Bits() < e.Prefix.Bits() {
		return false
	}
	ge, le := e.Ge, e.Le
	if ge == 0 {
		ge = e.Prefix.Bits()
	}
	if le == 0 {
		le = e.Prefix.Bits()
		if e.Ge != 0 {
			le = 32
		}
	}
	return p.Bits() >= ge && p.Bits() <= le
}

// PrefixList is an ordered list of prefix entries with first-match-wins
// semantics and implicit deny.
type PrefixList struct {
	Name    string        `json:"name,omitempty"`
	Entries []PrefixEntry `json:"entries"`
}

// Matches reports whether prefix p is permitted by the list.
func (l *PrefixList) Matches(p netip.Prefix) bool {
	for _, e := range l.Entries {
		if e.matches(p) {
			return e.Action == Permit
		}
	}
	return false
}

// CommunityList names a set of communities; it matches a route carrying any
// of them.
type CommunityList struct {
	Name        string                `json:"name,omitempty"`
	Communities []protocols.Community `json:"communities"`
}

// Matches reports whether the route's community set intersects the list.
func (l *CommunityList) Matches(cs protocols.CommSet) bool {
	for _, c := range l.Communities {
		if cs.Has(c) {
			return true
		}
	}
	return false
}

// MatchKind discriminates route-map match conditions.
type MatchKind int

// Match kinds.
const (
	MatchCommunity MatchKind = iota // Arg names a community list
	MatchPrefix                     // Arg names a prefix list
)

// Match is one match condition of a route-map clause; all matches in a
// clause must hold (logical AND).
type Match struct {
	Kind MatchKind `json:"kind"`
	Arg  string    `json:"arg"`
}

// SetKind discriminates route-map set actions.
type SetKind int

// Set kinds.
const (
	SetLocalPref SetKind = iota
	AddCommunity
	DeleteCommunity
)

// Set is one set action of a permitting route-map clause.
type Set struct {
	Kind  SetKind             `json:"kind"`
	Value uint32              `json:"value,omitempty"` // for SetLocalPref
	Comm  protocols.Community `json:"comm,omitempty"`  // for Add/DeleteCommunity
}

// Clause is one sequence of a route map. A clause with no matches matches
// everything.
type Clause struct {
	Seq     int     `json:"seq"`
	Action  Action  `json:"action"`
	Matches []Match `json:"matches,omitempty"`
	Sets    []Set   `json:"sets,omitempty"`
}

// RouteMap is an ordered list of clauses with first-match-wins semantics and
// implicit deny at the end.
type RouteMap struct {
	Name    string   `json:"name,omitempty"`
	Clauses []Clause `json:"clauses"`
}

// ACL is a destination-based packet filter applied on an interface. It does
// not affect routing, but Bonsai folds it into the edge signature so that
// fwd-equivalence is preserved (paper §6).
type ACL struct {
	Name    string        `json:"name,omitempty"`
	Entries []PrefixEntry `json:"entries"`
}

// Permits reports whether traffic to prefix p passes the ACL.
func (a *ACL) Permits(p netip.Prefix) bool {
	for _, e := range a.Entries {
		if e.matches(p) {
			return e.Action == Permit
		}
	}
	return false
}

// Env is a router's namespace of policy objects.
type Env struct {
	PrefixLists    map[string]*PrefixList
	CommunityLists map[string]*CommunityList
	RouteMaps      map[string]*RouteMap
	ACLs           map[string]*ACL
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		PrefixLists:    make(map[string]*PrefixList),
		CommunityLists: make(map[string]*CommunityList),
		RouteMaps:      make(map[string]*RouteMap),
		ACLs:           make(map[string]*ACL),
	}
}

// clauseMatches evaluates a clause's match conditions concretely against a
// destination prefix and community set.
func (env *Env) clauseMatches(cl *Clause, pfx netip.Prefix, comms protocols.CommSet) (bool, error) {
	for _, m := range cl.Matches {
		switch m.Kind {
		case MatchCommunity:
			l, ok := env.CommunityLists[m.Arg]
			if !ok {
				return false, fmt.Errorf("policy: unknown community list %q", m.Arg)
			}
			if !l.Matches(comms) {
				return false, nil
			}
		case MatchPrefix:
			l, ok := env.PrefixLists[m.Arg]
			if !ok {
				return false, fmt.Errorf("policy: unknown prefix list %q", m.Arg)
			}
			if !l.Matches(pfx) {
				return false, nil
			}
		default:
			return false, fmt.Errorf("policy: unknown match kind %d", m.Kind)
		}
	}
	return true, nil
}

// EvalRouteMap applies the named route map to a BGP attribute for routes to
// pfx. It returns the transformed attribute, or nil if the route is denied.
// An empty name means "no policy": permit unchanged. Unknown names or list
// references are configuration errors and panic, mirroring how a device
// would reject the configuration at load time.
func (env *Env) EvalRouteMap(name string, pfx netip.Prefix, a *protocols.BGPAttr) *protocols.BGPAttr {
	if name == "" {
		return a
	}
	rm, ok := env.RouteMaps[name]
	if !ok {
		panic(fmt.Sprintf("policy: unknown route map %q", name))
	}
	for i := range rm.Clauses {
		cl := &rm.Clauses[i]
		match, err := env.clauseMatches(cl, pfx, a.Comms)
		if err != nil {
			panic(err)
		}
		if !match {
			continue
		}
		if cl.Action == Deny {
			return nil
		}
		out := a.Clone()
		for _, s := range cl.Sets {
			switch s.Kind {
			case SetLocalPref:
				out.LP = s.Value
			case AddCommunity:
				out.Comms = out.Comms.With(s.Comm)
			case DeleteCommunity:
				out.Comms = out.Comms.Without(s.Comm)
			}
		}
		return out
	}
	return nil // implicit deny
}

// clauseReachableForPrefix reports whether the clause's prefix matches allow
// it to fire for routes to pfx. Community matches are input-dependent, so
// they are assumed satisfiable.
func (env *Env) clauseReachableForPrefix(cl *Clause, pfx netip.Prefix) bool {
	for _, m := range cl.Matches {
		if m.Kind == MatchPrefix {
			if l, ok := env.PrefixLists[m.Arg]; !ok || !l.Matches(pfx) {
				return false
			}
		}
	}
	return true
}

// LocalPrefValues returns the set of local-preference values the named route
// map may assign to a route for pfx, considering only clauses whose prefix
// matches are satisfied. This implements prefs(v) of Theorem 4.4.
func (env *Env) LocalPrefValues(name string, pfx netip.Prefix, into map[uint32]bool) {
	if name == "" {
		return
	}
	rm, ok := env.RouteMaps[name]
	if !ok {
		panic(fmt.Sprintf("policy: unknown route map %q", name))
	}
	for i := range rm.Clauses {
		cl := &rm.Clauses[i]
		if cl.Action == Deny || !env.clauseReachableForPrefix(cl, pfx) {
			continue
		}
		for _, s := range cl.Sets {
			if s.Kind == SetLocalPref {
				into[s.Value] = true
			}
		}
	}
}

// MayPermit reports whether the named route map can permit some route to
// pfx: a clause whose prefix matches hold permits before any clause that
// denies every route to pfx. An empty name permits everything.
func (env *Env) MayPermit(name string, pfx netip.Prefix) bool {
	if name == "" {
		return true
	}
	rm, ok := env.RouteMaps[name]
	if !ok {
		panic(fmt.Sprintf("policy: unknown route map %q", name))
	}
	for i := range rm.Clauses {
		cl := &rm.Clauses[i]
		if !env.clauseReachableForPrefix(cl, pfx) {
			continue
		}
		if cl.Action == Permit {
			return true
		}
		if !slices.ContainsFunc(cl.Matches, func(m Match) bool { return m.Kind != MatchPrefix }) {
			return false
		}
	}
	return false
}

// LocalPrefPassesThrough reports whether the named route map can permit a
// route to pfx without setting its local preference, so the incoming value
// survives. An empty name is the identity and always passes through; it is
// the companion predicate to LocalPrefValues for computing prefs(v).
func (env *Env) LocalPrefPassesThrough(name string, pfx netip.Prefix) bool {
	if name == "" {
		return true
	}
	rm, ok := env.RouteMaps[name]
	if !ok {
		panic(fmt.Sprintf("policy: unknown route map %q", name))
	}
	for i := range rm.Clauses {
		cl := &rm.Clauses[i]
		if cl.Action == Deny || !env.clauseReachableForPrefix(cl, pfx) {
			continue
		}
		setsLP := false
		for _, s := range cl.Sets {
			if s.Kind == SetLocalPref {
				setsLP = true
				break
			}
		}
		if !setsLP {
			return true
		}
	}
	return false
}

// ACLPermits evaluates the named ACL against a destination prefix; an empty
// name permits everything.
func (env *Env) ACLPermits(name string, pfx netip.Prefix) bool {
	if name == "" {
		return true
	}
	acl, ok := env.ACLs[name]
	if !ok {
		panic(fmt.Sprintf("policy: unknown ACL %q", name))
	}
	return acl.Permits(pfx)
}
