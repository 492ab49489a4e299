package bonsai

import (
	"fmt"
	"net/netip"
	"slices"

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

// Delta is a set of configuration edits applied atomically by Engine.Apply,
// in the order of its fields and each list in order. Link flaps toggle an
// administrative down flag, so the routers' session and interface
// configuration referencing the link survives a LinkDown and is restored by
// the matching LinkUp; LinkUp of a link that never existed creates a bare
// link (attach sessions via policy or neighbor configuration in the network
// before bringing it up).
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

// Validate checks every edit of the delta against cfg without mutating
// anything: link references must name existing links (LinkDown) or known
// routers (LinkUp of a new link), policy and origin edits must name known
// routers, and origin prefixes must parse. A batch validates each delta
// against its fork before any clone or compile work, so a bad edit fails
// fast and a delta is applied either completely or not at all.
func (d *Delta) Validate(cfg *config.Network) error {
	for _, l := range d.LinkDown {
		if cfg.FindLink(l.A, l.B) < 0 {
			return fmt.Errorf("bonsai: delta: no link %s -- %s", l.A, l.B)
		}
	}
	for _, l := range d.LinkUp {
		if cfg.FindLink(l.A, l.B) >= 0 {
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

// edits counts the delta's edits.
func (d *Delta) edits() int {
	return len(d.LinkDown) + len(d.LinkUp) + len(d.SetRouteMaps) +
		len(d.SetPrefixLists) + len(d.AddOriginated) + len(d.RemoveOriginated)
}

// editRouters makes the delta's policy and origin edits on clones of the
// routers of cfg they edit and returns the clones by name; cfg is not
// written. Routers and their policy namespaces are copy-on-write: a router
// is replaced by its Clone — and, for policy edits, its Env by a copy —
// before its first edit. The delta must have passed Validate against cfg.
func (d *Delta) editRouters(cfg *config.Network) map[string]*config.Router {
	var out map[string]*config.Router
	own := func(name string) *config.Router {
		r, ok := out[name]
		if !ok {
			if out == nil {
				out = make(map[string]*config.Router)
			}
			r = cfg.Routers[name].Clone()
			out[name] = r
		}
		return r
	}
	// envFor also gives the router a policy namespace of its own.
	envFor := func(name string) *config.Router {
		r := own(name)
		if r.Env == cfg.Routers[name].Env {
			r.CloneEnv()
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
		p := netip.MustParsePrefix(e.Prefix).Masked()
		if !slices.Contains(r.Originate, p) {
			r.Originate = append(r.Originate, p)
		}
	}
	for _, e := range d.RemoveOriginated {
		r := own(e.Router)
		p := netip.MustParsePrefix(e.Prefix).Masked()
		r.Originate = slices.DeleteFunc(r.Originate, func(q netip.Prefix) bool { return q == p })
	}
	return out
}

// editLinks makes the delta's link edits on cfg's own link records: a
// LinkDown sets the Down flag, a LinkUp clears it or adds the link. The
// delta must have passed Validate against cfg.
func (d *Delta) editLinks(cfg *config.Network) {
	for _, l := range d.LinkDown {
		cfg.Links[cfg.FindLink(l.A, l.B)].Down = true
	}
	for _, l := range d.LinkUp {
		if i := cfg.FindLink(l.A, l.B); i >= 0 {
			cfg.Links[i].Down = false
			continue
		}
		cfg.AddLinkN(l.A, l.B, 0) // Count 0 reads as one interface
	}
}
