package bonsai

import (
	"fmt"
	"net/netip"

	"bonsai/internal/config"
	"bonsai/internal/policy"
)

// Policy vocabulary, re-exported so library users can construct route maps
// and prefix lists for Delta edits without reaching into internal packages.
type (
	// RouteMap is an ordered list of permit/deny clauses applied to routes
	// crossing a BGP session.
	RouteMap = policy.RouteMap
	// Clause is one route-map clause: match conditions, an action, and
	// attribute modifications.
	Clause = policy.Clause
	// Match is one clause condition (prefix-list or community-list).
	Match = policy.Match
	// Set is one clause attribute modification.
	Set = policy.Set
	// PrefixList matches destination prefixes.
	PrefixList = policy.PrefixList
	// PrefixEntry is one prefix-list entry.
	PrefixEntry = policy.PrefixEntry
	// Action is a permit/deny verdict.
	Action = policy.Action
	// Prefix is an IP prefix in CIDR form (an alias of netip.Prefix).
	Prefix = netip.Prefix
)

// ParsePrefix parses a CIDR prefix and masks it to its canonical form.
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, err
	}
	return p.Masked(), nil
}

// Re-exported policy constants for building Delta edits.
const (
	Permit = policy.Permit
	Deny   = policy.Deny

	MatchPrefix    = policy.MatchPrefix
	MatchCommunity = policy.MatchCommunity

	SetLocalPref    = policy.SetLocalPref
	SetAddCommunity = policy.AddCommunity
	SetDelCommunity = policy.DeleteCommunity
)

// LinkRef names the undirected link between two routers.
type LinkRef struct {
	A string `json:"a"`
	B string `json:"b"`
}

// RouteMapEdit replaces (or, with a nil Map, deletes) the named route map
// in one router's policy namespace.
type RouteMapEdit struct {
	Router string    `json:"router"`
	Name   string    `json:"name"`
	Map    *RouteMap `json:"map,omitempty"`
}

// PrefixListEdit replaces (or, with a nil List, deletes) the named prefix
// list in one router's policy namespace.
type PrefixListEdit struct {
	Router string      `json:"router"`
	Name   string      `json:"name"`
	List   *PrefixList `json:"list,omitempty"`
}

// OriginEdit adds or removes an originated prefix on a router.
type OriginEdit struct {
	Router string `json:"router"`
	// Prefix is the CIDR text of the prefix, e.g. "10.0.9.0/24".
	Prefix string `json:"prefix"`
}

// Delta is a batch of configuration edits applied atomically by
// Engine.Apply. Link flaps toggle an administrative down flag, so the
// routers' session and interface configuration referencing the link
// survives a LinkDown and is restored by the matching LinkUp; LinkUp of a
// link that never existed creates a bare link (attach sessions via policy
// or neighbor configuration in the network before bringing it up).
type Delta struct {
	// LinkDown takes existing links administratively down.
	LinkDown []LinkRef `json:"link_down,omitempty"`
	// LinkUp brings links back up (or creates them when absent).
	LinkUp []LinkRef `json:"link_up,omitempty"`
	// SetRouteMaps edits route maps per router.
	SetRouteMaps []RouteMapEdit `json:"set_route_maps,omitempty"`
	// SetPrefixLists edits prefix lists per router.
	SetPrefixLists []PrefixListEdit `json:"set_prefix_lists,omitempty"`
	// AddOriginated and RemoveOriginated change which prefixes a router
	// originates, adding or removing destination equivalence classes.
	AddOriginated    []OriginEdit `json:"add_originated,omitempty"`
	RemoveOriginated []OriginEdit `json:"remove_originated,omitempty"`
}

// empty reports whether the delta contains no edits.
func (d *Delta) empty() bool {
	return len(d.LinkDown) == 0 && len(d.LinkUp) == 0 &&
		len(d.SetRouteMaps) == 0 && len(d.SetPrefixLists) == 0 &&
		len(d.AddOriginated) == 0 && len(d.RemoveOriginated) == 0
}

// touchedRouters returns the routers whose configuration (beyond link
// state) the delta edits.
func (d *Delta) touchedRouters() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(r string) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, e := range d.SetRouteMaps {
		add(e.Router)
	}
	for _, e := range d.SetPrefixLists {
		add(e.Router)
	}
	for _, e := range d.AddOriginated {
		add(e.Router)
	}
	for _, e := range d.RemoveOriginated {
		add(e.Router)
	}
	return out
}

// Validate checks every edit of the delta against cfg without mutating
// anything: link references must name existing links (LinkDown) or known
// routers (LinkUp of a new link), policy and origin edits must name known
// routers, and origin prefixes must parse. Engine.Apply and the stream
// coalescer validate before any clone or compile work, so a bad edit fails
// fast and a delta is applied either completely or not at all.
func (d *Delta) Validate(cfg *config.Network) error {
	return d.validate(cfg, func(a, b string) bool { return cfg.FindLink(a, b) >= 0 })
}

// validate is the one delta validator. linkExists says whether a link is
// there to be taken down or brought back up: in cfg for Validate, in cfg or
// pending in the batch for the stream coalescer.
func (d *Delta) validate(cfg *config.Network, linkExists func(a, b string) bool) error {
	for _, l := range d.LinkDown {
		if !linkExists(l.A, l.B) {
			return fmt.Errorf("bonsai: delta: no link %s -- %s", l.A, l.B)
		}
	}
	for _, l := range d.LinkUp {
		if linkExists(l.A, l.B) {
			continue
		}
		for _, r := range []string{l.A, l.B} {
			if _, ok := cfg.Routers[r]; !ok {
				return fmt.Errorf("bonsai: delta: link references unknown router %q", r)
			}
		}
	}
	checkRouter := func(name string) error {
		if _, ok := cfg.Routers[name]; !ok {
			return fmt.Errorf("bonsai: delta: unknown router %q", name)
		}
		return nil
	}
	for _, e := range d.SetRouteMaps {
		if err := checkRouter(e.Router); err != nil {
			return err
		}
	}
	for _, e := range d.SetPrefixLists {
		if err := checkRouter(e.Router); err != nil {
			return err
		}
	}
	for _, es := range [][]OriginEdit{d.AddOriginated, d.RemoveOriginated} {
		for _, e := range es {
			if err := checkRouter(e.Router); err != nil {
				return err
			}
			if _, err := netip.ParsePrefix(e.Prefix); err != nil {
				return fmt.Errorf("bonsai: delta: bad prefix %q: %w", e.Prefix, err)
			}
		}
	}
	return nil
}

// apply mutates cfg, a private config.Network.Fork of the configuration
// being served, in place. Routers and their policy namespaces are
// copy-on-write: cfg shares every *Router with its predecessor, so a router
// is replaced by its Clone — and, for policy edits, its Env by a copy —
// before its first edit, and the predecessor is never written through. Link
// records are cfg's own. The delta must have passed Validate against the
// configuration cfg was forked from: that is what makes an apply
// all-or-nothing, and apply does not run it again.
func (d *Delta) apply(cfg *config.Network) error {
	for _, l := range d.LinkDown {
		cfg.Links[cfg.FindLink(l.A, l.B)].Down = true
	}
	for _, l := range d.LinkUp {
		if i := cfg.FindLink(l.A, l.B); i >= 0 {
			cfg.Links[i].Down = false
			continue
		}
		cfg.Links = append(cfg.Links, config.Link{A: l.A, B: l.B})
	}
	// own returns the named router once it is cfg's to edit; envFor also
	// gives it a policy namespace of its own.
	owned := make(map[string]bool)
	own := func(name string) *config.Router {
		if !owned[name] {
			cfg.Routers[name] = cfg.Routers[name].Clone()
			owned[name] = true
		}
		return cfg.Routers[name]
	}
	envCloned := make(map[string]bool)
	envFor := func(name string) *config.Router {
		r := own(name)
		if !envCloned[name] {
			r.CloneEnv()
			envCloned[name] = true
		}
		return r
	}
	for _, e := range d.SetRouteMaps {
		r := envFor(e.Router)
		if e.Map == nil {
			delete(r.Env.RouteMaps, e.Name)
		} else {
			m := *e.Map
			m.Name = e.Name
			r.Env.RouteMaps[e.Name] = &m
		}
	}
	for _, e := range d.SetPrefixLists {
		r := envFor(e.Router)
		if e.List == nil {
			delete(r.Env.PrefixLists, e.Name)
		} else {
			l := *e.List
			l.Name = e.Name
			r.Env.PrefixLists[e.Name] = &l
		}
	}
	for _, e := range d.AddOriginated {
		r := own(e.Router)
		p, err := netip.ParsePrefix(e.Prefix)
		if err != nil {
			return fmt.Errorf("bonsai: delta: bad prefix %q: %w", e.Prefix, err)
		}
		p = p.Masked()
		exists := false
		for _, q := range r.Originate {
			if q == p {
				exists = true
				break
			}
		}
		if !exists {
			r.Originate = append(r.Originate, p)
		}
	}
	for _, e := range d.RemoveOriginated {
		r := own(e.Router)
		p, err := netip.ParsePrefix(e.Prefix)
		if err != nil {
			return fmt.Errorf("bonsai: delta: bad prefix %q: %w", e.Prefix, err)
		}
		p = p.Masked()
		out := r.Originate[:0]
		for _, q := range r.Originate {
			if q != p {
				out = append(out, q)
			}
		}
		r.Originate = out
	}
	return nil
}
