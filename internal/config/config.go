// Package config defines the vendor-independent configuration representation
// Bonsai operates over (paper §7: Batfish's intermediate representation).
// A Network bundles routers and links; each router carries its BGP and OSPF
// process configuration, static routes, originated prefixes and a namespace
// of policy objects (route maps, prefix lists, community lists, ACLs).
// A plain-text serialisation lives in format.go so compressed networks can
// be written back out as smaller configurations, as Bonsai does.
package config

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"

	"bonsai/internal/policy"
	"bonsai/internal/protocols"
)

// Network is a set of routers joined by links.
type Network struct {
	Name    string
	Routers map[string]*Router
	// Links may be appended to, have a record's Down flag set in place, or
	// be replaced by a slice over another array (slices.Delete on a clone,
	// say); the records it holds are not rewritten or moved in place, which
	// the link index (FindLink) relies on.
	Links []Link
	links *linkIndex
}

// Link is an undirected connection between two routers. Count models
// parallel virtual interfaces (VLAN subinterfaces) sharing the link and the
// same policies; it defaults to 1 and only affects interface accounting,
// not routing. Down marks the link administratively down: the routers'
// session and interface configurations referencing it remain valid, but the
// link carries no adjacency in the SRP topology — incremental updates flap
// links by toggling this flag rather than rewriting neighbor state.
type Link struct {
	A, B  string
	Count int
	Down  bool
}

func (l Link) count() int {
	if l.Count <= 0 {
		return 1
	}
	return l.Count
}

// Router is one device configuration.
type Router struct {
	Name      string
	Env       *policy.Env
	BGP       *BGPConfig
	OSPF      *OSPFConfig
	Statics   []StaticRoute
	Originate []netip.Prefix
	// IfaceACL maps a neighbor name to the ACL filtering traffic forwarded
	// out the interface toward that neighbor.
	IfaceACL map[string]string
}

// BGPConfig is a router's BGP process.
type BGPConfig struct {
	ASN       int
	Neighbors map[string]*Neighbor
	// RedistributeOSPF and RedistributeStatic inject RIB routes learned
	// from those protocols into BGP (paper §6, route redistribution).
	RedistributeOSPF   bool
	RedistributeStatic bool
}

// Neighbor is a BGP session toward the named peer router.
type Neighbor struct {
	ImportMap string // route map applied to routes received from the peer
	ExportMap string // route map applied to routes sent to the peer
}

// OSPFConfig is a router's OSPF process.
type OSPFConfig struct {
	Ifaces map[string]OSPFIface // keyed by neighbor name
}

// OSPFIface is the OSPF configuration of one interface.
type OSPFIface struct {
	Cost int
	Area int
}

// StaticRoute sends traffic for Prefix to the named next-hop neighbor.
type StaticRoute struct {
	Prefix  netip.Prefix
	NextHop string
}

// New returns an empty network.
func New(name string) *Network {
	return &Network{Name: name, Routers: make(map[string]*Router), links: new(linkIndex)}
}

// AddRouter creates (or returns) the named router.
func (n *Network) AddRouter(name string) *Router {
	if r, ok := n.Routers[name]; ok {
		return r
	}
	r := &Router{Name: name, Env: policy.NewEnv(), IfaceACL: make(map[string]string)}
	n.Routers[name] = r
	return r
}

// AddLink connects two routers (idempotent on the unordered pair).
func (n *Network) AddLink(a, b string) {
	n.AddLinkN(a, b, 1)
}

// AddLinkN connects two routers with count parallel virtual interfaces
// (idempotent on the unordered pair). It finds the pair through the link
// index, as FindLink does.
func (n *Network) AddLinkN(a, b string, count int) {
	n.link(a, b, count)
}

// RouterNames returns all router names sorted.
func (n *Network) RouterNames() []string {
	out := make([]string, 0, len(n.Routers))
	for name := range n.Routers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NumInterfaces counts directed interfaces including virtual multiplicity,
// matching how the paper reports edge counts for the operational networks.
// Administratively-down links do not count.
func (n *Network) NumInterfaces() int {
	total := 0
	for _, l := range n.Links {
		if l.Down {
			continue
		}
		total += 2 * l.count()
	}
	return total
}

// FindLink returns the index in Links of the first link joining a and b (in
// either order), or -1 when none exists. It reads the network's link index,
// which indexes only the records appended since its last use.
func (n *Network) FindLink(a, b string) int {
	x := n.index()
	defer x.mu.Unlock()
	i, _ := x.lookup(a, b, false)
	return i
}

// Clone returns a structurally independent copy of the network: routers,
// link records and all per-router slices and maps are fresh, so mutating the
// clone never changes the original. Policy namespaces (Env) are shared
// pointers — they are immutable by convention once a network is built; a
// caller editing policies must first replace the router's Env via
// CloneEnv.
func (n *Network) Clone() *Network {
	out := n.Fork()
	for name, r := range out.Routers {
		out.Routers[name] = r.Clone()
	}
	return out
}

// Fork returns a copy of the network that shares every *Router with n: the
// cheap successor for a writer that edits a few routers. The copy-on-write
// rule is the one CloneEnv applies one level down — replace a router with
// its Clone before the first edit, never write through a shared one. Link
// records are copied, so link state may be edited in place. The copy reads
// n's link index for the records n had and indexes its own from there.
func (n *Network) Fork() *Network {
	f := &Network{Name: n.Name, Routers: maps.Clone(n.Routers), Links: slices.Clone(n.Links)}
	f.links = n.links.fork(n.Links, f.Links)
	return f
}

// Clone returns a copy of the router with fresh slices and maps. The policy
// namespace (Env) stays shared; see CloneEnv.
func (r *Router) Clone() *Router {
	cr := &Router{
		Name:      r.Name,
		Env:       r.Env,
		Statics:   slices.Clone(r.Statics),
		Originate: slices.Clone(r.Originate),
		IfaceACL:  cloneMap(r.IfaceACL),
	}
	if r.BGP != nil {
		cb := *r.BGP
		cb.Neighbors = make(map[string]*Neighbor, len(r.BGP.Neighbors))
		for peer, nb := range r.BGP.Neighbors {
			c := *nb
			cb.Neighbors[peer] = &c
		}
		cr.BGP = &cb
	}
	if r.OSPF != nil {
		cr.OSPF = &OSPFConfig{Ifaces: cloneMap(r.OSPF.Ifaces)}
	}
	return cr
}

// cloneMap is maps.Clone that never returns nil, so a clone can be written to.
func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	return maps.Clone(m)
}

// CloneEnv replaces the router's policy namespace with a copy whose maps are
// fresh (the named objects themselves stay shared — replace an entry to edit
// it). Incremental updates call this before editing a router's policies so
// that other clones sharing the original Env are unaffected.
func (r *Router) CloneEnv() {
	e := policy.NewEnv()
	for k, v := range r.Env.PrefixLists {
		e.PrefixLists[k] = v
	}
	for k, v := range r.Env.CommunityLists {
		e.CommunityLists[k] = v
	}
	for k, v := range r.Env.RouteMaps {
		e.RouteMaps[k] = v
	}
	for k, v := range r.Env.ACLs {
		e.ACLs[k] = v
	}
	r.Env = e
}

// EnsureBGP returns the router's BGP config, creating it with the ASN.
func (r *Router) EnsureBGP(asn int) *BGPConfig {
	if r.BGP == nil {
		r.BGP = &BGPConfig{ASN: asn, Neighbors: make(map[string]*Neighbor)}
	}
	return r.BGP
}

// EnsureOSPF returns the router's OSPF config, creating it if needed.
func (r *Router) EnsureOSPF() *OSPFConfig {
	if r.OSPF == nil {
		r.OSPF = &OSPFConfig{Ifaces: make(map[string]OSPFIface)}
	}
	return r.OSPF
}

// Validate checks referential integrity: links point at existing routers,
// BGP neighbors and static next-hops are linked peers, and policy names
// resolve. It is LinkEnds and then CheckRouter over every router in name
// order; internal/build runs the same two over its own node table.
func (n *Network) Validate() error {
	names := n.RouterNames()
	ids := make(map[string]int32, len(names))
	for i, name := range names {
		ids[name] = int32(i)
	}
	id := func(name string) (int32, bool) {
		v, ok := ids[name]
		return v, ok
	}
	ends, err := LinkEnds(n.Links, id)
	if err != nil {
		return err
	}
	adj := NewAdjacency(len(names), ends)
	for u, name := range names {
		if err := CheckRouter(name, n.Routers[name], adj.Peers(int32(u)), id); err != nil {
			return err
		}
	}
	return nil
}

// LinkEnds resolves every link's two endpoints through id, the router
// numbering, into one slice: ends[2i] and ends[2i+1] are links[i].A and
// links[i].B. A name id does not know is Validate's error.
func LinkEnds(links []Link, id func(name string) (int32, bool)) ([]int32, error) {
	ends := make([]int32, 0, 2*len(links))
	for _, l := range links {
		a, ok := id(l.A)
		if !ok {
			return nil, fmt.Errorf("config: link references unknown router %q", l.A)
		}
		b, ok := id(l.B)
		if !ok {
			return nil, fmt.Errorf("config: link references unknown router %q", l.B)
		}
		ends = append(ends, a, b)
	}
	return ends, nil
}

// Adjacency is the link relation CheckRouter reads: per router id, the ids
// of its peers over every link, down links included (a router's session and
// interface configuration survives a link flap), carved from one array.
type Adjacency struct {
	off, peers []int32
}

// NewAdjacency builds the adjacency of routers routers from LinkEnds'
// output.
func NewAdjacency(routers int, ends []int32) *Adjacency {
	a := &Adjacency{off: make([]int32, routers+1), peers: make([]int32, len(ends))}
	for _, u := range ends {
		a.off[u+1]++
	}
	for i := range routers {
		a.off[i+1] += a.off[i]
	}
	fill := slices.Clone(a.off[:routers])
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		a.peers[fill[u]] = v
		fill[u]++
		a.peers[fill[v]] = u
		fill[v]++
	}
	return a
}

// Peers returns router u's peers, sorted in place on each call, so a caller
// checking a few routers sorts only theirs.
func (a *Adjacency) Peers(u int32) []int32 {
	mine := a.peers[a.off[u]:a.off[u+1]]
	slices.Sort(mine)
	return mine
}

// CheckRouter makes Validate's checks of one router, named name: its BGP
// neighbors, OSPF interfaces, static next hops and interface ACLs face
// peers (sorted router ids, Adjacency.Peers), and every policy object it
// names resolves in its Env. It reads only the router, its Env and its
// peers, so a router whose pointer and links are unchanged keeps its
// verdict. Of several faults it names the first in that order, and within
// one kind the one under the least neighbor or route-map name, so one
// configuration always gets one error.
func CheckRouter(name string, r *Router, peers []int32, id func(name string) (int32, bool)) error {
	linked := func(peer string) bool {
		v, ok := id(peer)
		if !ok {
			return false
		}
		_, found := slices.BinarySearch(peers, v)
		return found
	}
	if r.BGP != nil {
		if err := leastFault(r.BGP.Neighbors, func(peer string, nb *Neighbor) error {
			if !linked(peer) {
				return fmt.Errorf("config: %s has BGP neighbor %s without a link", name, peer)
			}
			for _, rm := range []string{nb.ImportMap, nb.ExportMap} {
				if rm != "" {
					if _, ok := r.Env.RouteMaps[rm]; !ok {
						return fmt.Errorf("config: %s references unknown route map %q", name, rm)
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if r.OSPF != nil {
		if err := leastFault(r.OSPF.Ifaces, func(peer string, _ OSPFIface) error {
			if !linked(peer) {
				return fmt.Errorf("config: %s has OSPF iface toward %s without a link", name, peer)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for _, s := range r.Statics {
		if !linked(s.NextHop) {
			return fmt.Errorf("config: %s static route via non-neighbor %s", name, s.NextHop)
		}
	}
	if err := leastFault(r.IfaceACL, func(peer, acl string) error {
		if !linked(peer) {
			return fmt.Errorf("config: %s has ACL on non-neighbor iface %s", name, peer)
		}
		if _, ok := r.Env.ACLs[acl]; !ok {
			return fmt.Errorf("config: %s references unknown ACL %q", name, acl)
		}
		return nil
	}); err != nil {
		return err
	}
	return leastFault(r.Env.RouteMaps, func(rmName string, rm *policy.RouteMap) error {
		for _, cl := range rm.Clauses {
			for _, m := range cl.Matches {
				switch m.Kind {
				case policy.MatchCommunity:
					if _, ok := r.Env.CommunityLists[m.Arg]; !ok {
						return fmt.Errorf("config: %s route map %s uses unknown community list %q", name, rmName, m.Arg)
					}
				case policy.MatchPrefix:
					if _, ok := r.Env.PrefixLists[m.Arg]; !ok {
						return fmt.Errorf("config: %s route map %s uses unknown prefix list %q", name, rmName, m.Arg)
					}
				}
			}
		}
		return nil
	})
}

// leastFault returns the error fault reports for the least key of m that has
// one: the same error whatever order the map is walked in, for nothing more
// than the walk when no key has one.
func leastFault[V any](m map[string]V, fault func(string, V) error) error {
	var least string
	var err error
	for k, v := range m {
		if err != nil && k > least {
			continue
		}
		if e := fault(k, v); e != nil {
			least, err = k, e
		}
	}
	return err
}

// MatchedCommunities returns every community that some router's route map
// can actually match on (via a referenced community list). Using this as the
// BDD universe implements the unused-tag-erasing attribute abstraction of
// §8; AllCommunities is the non-erasing alternative.
func (n *Network) MatchedCommunities() []protocols.Community {
	set := make(map[protocols.Community]bool)
	for _, r := range n.Routers {
		for _, rm := range r.Env.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, m := range cl.Matches {
					if m.Kind != policy.MatchCommunity {
						continue
					}
					if l, ok := r.Env.CommunityLists[m.Arg]; ok {
						for _, c := range l.Communities {
							set[c] = true
						}
					}
				}
			}
		}
	}
	return sortedComms(set)
}

// AllCommunities returns every community mentioned anywhere: matched in
// lists or set/deleted by route maps.
func (n *Network) AllCommunities() []protocols.Community {
	set := make(map[protocols.Community]bool)
	for _, r := range n.Routers {
		for _, l := range r.Env.CommunityLists {
			for _, c := range l.Communities {
				set[c] = true
			}
		}
		for _, rm := range r.Env.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, s := range cl.Sets {
					if s.Kind == policy.AddCommunity || s.Kind == policy.DeleteCommunity {
						set[s.Comm] = true
					}
				}
			}
		}
	}
	return sortedComms(set)
}

func sortedComms(set map[protocols.Community]bool) []protocols.Community {
	out := make([]protocols.Community, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OriginatedPrefixes returns every originated prefix with its origin
// routers, sorted by prefix then router.
func (n *Network) OriginatedPrefixes() map[netip.Prefix][]string {
	out := make(map[netip.Prefix][]string)
	for _, name := range n.RouterNames() {
		for _, p := range n.Routers[name].Originate {
			out[p.Masked()] = append(out[p.Masked()], name)
		}
	}
	return out
}
