package build

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
)

// TestSuccessorEqualsNew walks seeded chains of random edits — every kind a
// Delta makes (link down, link up, a new link, route-map and prefix-list
// sets and deletes, origin add and remove) and a few it cannot (statics,
// interface ACLs, community lists, a router taking another's Env, a link
// record removed) — applied
// copy-on-write to a Fork as Delta.apply does. At every step
// Builder.Successor must equal New on the same network: the same error when
// the network is invalid (the same router at fault), else the same graph, tables, statics, universes
// and classes, with policy namespaces compared by identity.
func TestSuccessorEqualsNew(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *config.Network
	}{
		{"fattree-6", netgen.Fattree(6, netgen.PolicyShortestPath)},
		{"datacenter-small", netgen.Datacenter(netgen.DCOptions{Clusters: 2, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, PrefixesPerLeaf: 2, VirtualIfaces: 1})},
		{"wan-policies", wanWithPolicies()},
		{"figure2", bgpDiamond()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(len(tc.name))))
			b, err := New(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			invalid := 0
			for step := range 240 {
				net := b.Cfg.Fork()
				what := randomEdit(rng, net)
				want, werr := New(net)
				got, gerr := b.Successor(net)
				// config.CheckRouter names the same fault on every run, so
				// both must name the same one.
				if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
					t.Fatalf("step %d (%s): Successor says %v, New says %v", step, what, gerr, werr)
				}
				if werr != nil {
					invalid++
					continue // the chain stays where it was, as a rejected delta leaves it
				}
				if d := builderDiff(got, want); d != "" {
					t.Fatalf("step %d (%s): %s", step, what, d)
				}
				b = got
			}
			t.Logf("%d invalid steps of 240", invalid)
		})
	}
}

// TestLinklessNetworks: a network without links (one router, or none at
// all, as Parse returns for an empty text) builds cold and as a successor.
func TestLinklessNetworks(t *testing.T) {
	one := config.New("one")
	one.AddRouter("r").Originate = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}
	for _, net := range []*config.Network{config.New("empty"), one} {
		b := mustNew(t, net)
		next := net.Fork()
		if r, ok := next.Routers["r"]; ok {
			r = r.Clone()
			r.Originate = append(r.Originate, netip.MustParsePrefix("10.0.1.0/24"))
			next.Routers["r"] = r
		}
		got, err := b.Successor(next)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		if d := builderDiff(got, mustNew(t, next)); d != "" {
			t.Fatalf("%s: %s", net.Name, d)
		}
	}
}

// wanWithPolicies is a small WAN (eBGP, OSPF and default statics) given an
// interface ACL and a community-matching import map, so that every table a
// successor carries is non-empty.
func wanWithPolicies() *config.Network {
	n := netgen.WAN(netgen.WANOptions{Backbone: 6, Sites: 8, SwitchesPerSite: 2})
	for _, name := range n.RouterNames() {
		r := n.Routers[name]
		if r.BGP == nil || len(r.BGP.Neighbors) == 0 {
			continue
		}
		r.Env.CommunityLists["TAGGED"] = &policy.CommunityList{Name: "TAGGED", Communities: []protocols.Community{protocols.MakeCommunity(65000, 1)}}
		r.Env.RouteMaps["DROP-TAGGED"] = &policy.RouteMap{Name: "DROP-TAGGED", Clauses: []policy.Clause{
			{Seq: 10, Action: policy.Deny, Matches: []policy.Match{{Kind: policy.MatchCommunity, Arg: "TAGGED"}}},
			{Seq: 20, Action: policy.Permit},
		}}
		r.Env.ACLs["EDGE"] = &policy.ACL{Name: "EDGE", Entries: []policy.PrefixEntry{{Action: policy.Deny, Prefix: netip.MustParsePrefix("10.0.0.0/24")}, {Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32}}}
		for _, peer := range slices.Sorted(maps.Keys(r.BGP.Neighbors)) {
			if r.BGP.Neighbors[peer].ImportMap == "" {
				r.BGP.Neighbors[peer].ImportMap = "DROP-TAGGED"
			}
			r.IfaceACL[peer] = "EDGE"
			break
		}
		if name > "s" {
			break // a few routers are enough
		}
	}
	return n
}

// randomEdit applies one random edit to net, a Fork, without writing
// through a router or namespace net shares, and says what it did.
func randomEdit(rng *rand.Rand, net *config.Network) string {
	names := net.RouterNames()
	pick := func() string { return names[rng.IntN(len(names))] }
	own := func(name string) *config.Router {
		r := net.Routers[name].Clone()
		net.Routers[name] = r
		return r
	}
	env := func(name string) *config.Router {
		r := own(name)
		r.CloneEnv()
		return r
	}
	comm := func() protocols.Community { return protocols.MakeCommunity(65000, uint16(1+rng.IntN(6))) }
	pfx := func() netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.IntN(4)), byte(rng.IntN(8)), 0}), 24)
	}
	peers := func(name string) []string {
		var out []string
		for _, l := range net.Links {
			if l.A == name {
				out = append(out, l.B)
			} else if l.B == name {
				out = append(out, l.A)
			}
		}
		return out
	}
	switch k := rng.IntN(14); k {
	case 0, 1:
		i := rng.IntN(len(net.Links))
		net.Links[i].Down = true
		return "down " + net.Links[i].A + "-" + net.Links[i].B
	case 2, 3:
		for _, i := range rng.Perm(len(net.Links)) {
			if net.Links[i].Down {
				net.Links[i].Down = false
				return "up " + net.Links[i].A + "-" + net.Links[i].B
			}
		}
		return "up of nothing"
	case 4:
		a, c := pick(), pick()
		if a == c || net.FindLink(a, c) >= 0 {
			return "new link refused"
		}
		net.Links = append(net.Links, config.Link{A: a, B: c})
		return "new link " + a + "-" + c
	case 5, 6:
		// A route map set: an existing name (or a new one attached to a
		// session), matching what the router's namespace holds or not.
		name := pick()
		r := env(name)
		mapName := "RM-T"
		if ms := slices.Sorted(maps.Keys(r.Env.RouteMaps)); len(ms) > 0 && rng.IntN(2) == 0 {
			mapName = ms[rng.IntN(len(ms))]
		}
		cl := policy.Clause{Seq: 10, Action: policy.Permit}
		switch rng.IntN(5) {
		case 0:
			cl.Sets = []policy.Set{{Kind: policy.SetLocalPref, Value: uint32(100 + rng.IntN(3)*50)}}
		case 1:
			cl.Sets = []policy.Set{{Kind: policy.AddCommunity, Comm: comm()}}
		case 2:
			r.Env.CommunityLists["CL-T"] = &policy.CommunityList{Name: "CL-T", Communities: []protocols.Community{comm()}}
			cl.Matches = []policy.Match{{Kind: policy.MatchCommunity, Arg: "CL-T"}}
		case 3:
			if pls := slices.Sorted(maps.Keys(r.Env.PrefixLists)); len(pls) > 0 {
				cl.Matches = []policy.Match{{Kind: policy.MatchPrefix, Arg: pls[rng.IntN(len(pls))]}}
			}
		case 4:
			cl.Matches = []policy.Match{{Kind: policy.MatchPrefix, Arg: "PL-MISSING"}}
		}
		r.Env.RouteMaps[mapName] = &policy.RouteMap{Name: mapName, Clauses: []policy.Clause{cl, {Seq: 20, Action: policy.Permit}}}
		if r.BGP != nil && len(r.BGP.Neighbors) > 0 && rng.IntN(2) == 0 {
			ps := slices.Sorted(maps.Keys(r.BGP.Neighbors))
			nb := r.BGP.Neighbors[ps[rng.IntN(len(ps))]]
			if rng.IntN(2) == 0 {
				nb.ImportMap = mapName
			} else {
				nb.ExportMap = mapName
			}
		}
		return "set route map " + mapName + " at " + name
	case 7:
		name := pick()
		ms := slices.Sorted(maps.Keys(net.Routers[name].Env.RouteMaps))
		if len(ms) == 0 {
			return "delete of no route map"
		}
		r := env(name)
		delete(r.Env.RouteMaps, ms[rng.IntN(len(ms))])
		return "delete a route map at " + name
	case 8:
		name := pick()
		r := env(name)
		pls := slices.Sorted(maps.Keys(r.Env.PrefixLists))
		if len(pls) > 0 && rng.IntN(3) == 0 {
			delete(r.Env.PrefixLists, pls[rng.IntN(len(pls))])
			return "delete a prefix list at " + name
		}
		plName := "PL-T"
		if len(pls) > 0 && rng.IntN(2) == 0 {
			plName = pls[rng.IntN(len(pls))]
		}
		r.Env.PrefixLists[plName] = &policy.PrefixList{Name: plName, Entries: []policy.PrefixEntry{{Action: policy.Permit, Prefix: pfx()}}}
		return "set prefix list " + plName + " at " + name
	case 9:
		name := pick()
		r := own(name)
		if len(r.Originate) > 0 && rng.IntN(2) == 0 {
			r.Originate = slices.Delete(r.Originate, 0, 1)
			return "withdraw an origin at " + name
		}
		r.Originate = append(r.Originate, pfx())
		return "originate at " + name
	case 10:
		name := pick()
		ps := peers(name)
		if len(ps) == 0 {
			return "static at an isolated router"
		}
		r := own(name)
		r.Statics = append(r.Statics, config.StaticRoute{Prefix: pfx(), NextHop: ps[rng.IntN(len(ps))]})
		return "static at " + name
	case 11:
		name := pick()
		ps := peers(name)
		if len(ps) == 0 {
			return "ACL at an isolated router"
		}
		r := env(name)
		r.Env.ACLs["ACL-T"] = &policy.ACL{Name: "ACL-T", Entries: []policy.PrefixEntry{{Action: policy.Deny, Prefix: pfx()}, {Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32}}}
		r.IfaceACL[ps[rng.IntN(len(ps))]] = "ACL-T"
		return "ACL at " + name
	case 12:
		// A link record removed, or replaced by another at the end, which
		// no Delta does: the network is not a successor's, so Successor
		// must validate as New does.
		i := rng.IntN(len(net.Links))
		l := net.Links[i]
		net.Links = slices.Delete(slices.Clone(net.Links), i, i+1)
		if a, c := pick(), pick(); a != c && net.FindLink(a, c) < 0 && rng.IntN(2) == 0 {
			net.Links = append(net.Links, config.Link{A: a, B: c})
			return "replace the link record " + l.A + "-" + l.B + " by " + a + "-" + c
		}
		return "remove the link record " + l.A + "-" + l.B
	default:
		// Two routers sharing one namespace, as a hand-written
		// configuration may; a later edit of either clones it.
		a, c := pick(), pick()
		own(a).Env = net.Routers[c].Env
		return a + " takes " + c + "'s namespace"
	}
}

// builderDiff names the first field in which two Builders over the same
// network differ, or returns "".
func builderDiff(got, want *Builder) string {
	gg, wg := got.G, want.G
	if gg.NumNodes() != wg.NumNodes() {
		return fmt.Sprintf("%d nodes, want %d", gg.NumNodes(), wg.NumNodes())
	}
	for _, u := range wg.Nodes() {
		if gg.Name(u) != wg.Name(u) {
			return fmt.Sprintf("node %d is %s, want %s", u, gg.Name(u), wg.Name(u))
		}
		if !slices.Equal(gg.Succ(u), wg.Succ(u)) {
			return fmt.Sprintf("succ(%s) = %v, want %v", wg.Name(u), gg.Succ(u), wg.Succ(u))
		}
	}
	if !slices.Equal(gg.Edges(), wg.Edges()) || !slices.Equal(gg.ReverseEdges(), wg.ReverseEdges()) {
		return "edge lists differ"
	}
	if !slices.Equal(got.routers, want.routers) || got.hasBGP != want.hasBGP || !slices.Equal(got.ends, want.ends) {
		return "routers, hasBGP or link ends differ"
	}
	gt, wt := got.tab, want.tab
	for _, f := range []struct {
		name string
		eq   bool
	}{
		{"edges", slices.Equal(gt.edges, wt.edges)},
		{"rev", slices.Equal(gt.rev, wt.rev)},
		{"shapes", slices.Equal(gt.shapes, wt.shapes)},
		{"shapeOf", slices.Equal(gt.shapeOf, wt.shapeOf)},
		{"ospfCost", slices.Equal(gt.ospfCost, wt.ospfCost)},
		{"ospfCross", slices.Equal(gt.ospfCross, wt.ospfCross)},
		{"recs", slices.Equal(gt.recs, wt.recs)},
		{"contentOf", slices.Equal(gt.contentOf, wt.contentOf)},
		{"labels", slices.Equal(gt.labels, wt.labels)},
		{"sigRMs", slices.Equal(gt.sigRMs, wt.sigRMs)},
		{"sigACLs", slices.Equal(gt.sigACLs, wt.sigACLs)},
		{"rmLists", slices.EqualFunc(gt.rmLists, wt.rmLists, slices.Equal[[]*policy.PrefixList])},
		{"matchRMs", slices.Equal(gt.matchRMs, wt.matchRMs)},
		{"attrMatch", gt.attrMatch == wt.attrMatch},
		{"lpNodes", slices.Equal(gt.lpNodes, wt.lpNodes)},
		{"guarded", slices.Equal(gt.guarded, wt.guarded)},
		{"statics", slices.Equal(got.statics, want.statics)},
		{"erasedUniverse", slices.Equal(got.erasedUniverse, want.erasedUniverse)},
		{"fullUniverse", slices.Equal(got.fullUniverse, want.fullUniverse)},
		{"matchedSet", maps.Equal(got.matchedSet, want.matchedSet)},
		{"classes", reflect.DeepEqual(got.Classes(), want.Classes())},
	} {
		if !f.eq {
			return f.name + " differ"
		}
	}
	return ""
}

// TestSuccessorSharesOnlyWhatNoEditReaches pins the sharing itself: a link
// flap keeps the node table, the universes and spaces and every router
// pointer, and a route-map edit that adds a community match gets universes
// of its own.
func TestSuccessorSharesOnlyWhatNoEditReaches(t *testing.T) {
	b, err := New(wanWithPolicies())
	if err != nil {
		t.Fatal(err)
	}
	net := b.Cfg.Fork()
	net.Links[0].Down = true
	s, err := b.Successor(net)
	if err != nil {
		t.Fatal(err)
	}
	if s.G.Name(0) != b.G.Name(0) || s.polSpaces != b.polSpaces || &s.routers[0] == &b.routers[0] {
		t.Fatal("a link flap must share the node table and spaces and copy the router slice")
	}
	if u, _ := s.G.Lookup(b.G.Name(1)); u != 1 {
		t.Fatal("the shared index must resolve as before")
	}
	net = s.Cfg.Fork()
	name := net.RouterNames()[0]
	r := net.Routers[name].Clone()
	r.CloneEnv()
	r.Env.CommunityLists["NEW"] = &policy.CommunityList{Name: "NEW", Communities: []protocols.Community{protocols.MakeCommunity(65001, 9)}}
	r.Env.RouteMaps["NEW"] = &policy.RouteMap{Name: "NEW", Clauses: []policy.Clause{{Seq: 1, Action: policy.Permit, Matches: []policy.Match{{Kind: policy.MatchCommunity, Arg: "NEW"}}}}}
	net.Routers[name] = r
	s2, err := s.Successor(net)
	if err != nil {
		t.Fatal(err)
	}
	if s2.polSpaces == s.polSpaces || !slices.Contains(s2.erasedUniverse, protocols.MakeCommunity(65001, 9)) {
		t.Fatal("a new community match must rebuild the universes and spaces")
	}
	if d := builderDiff(s2, mustNew(t, net)); d != "" {
		t.Fatal(d)
	}
}

// TestSuccessorSplicesTheEdgeDiff pins the splice itself, which
// TestSuccessorEqualsNew cannot see, because a full rebuild equals New too.
// A flap shares the interned tables, clipped, and looks no edge up by name
// but the ones it adds; an origin edit looks up only its router's edges; a
// flap that moves a shape's first sight renumbers without a sweep; and a
// route-map edit that adds a community match takes the sweep. Every step
// must still equal New.
func TestSuccessorSplicesTheEdgeDiff(t *testing.T) {
	fattree := netgen.Fattree(12, netgen.PolicyShortestPath)
	down := func(a, c string) func(*config.Network) {
		return func(net *config.Network) { net.Links[net.FindLink(a, c)].Down = true }
	}
	clone := func(net *config.Network, name string) *config.Router {
		r := net.Routers[name].Clone()
		net.Routers[name] = r
		return r
	}
	for _, tc := range []struct {
		name    string
		net     *config.Network
		edit    func(*config.Network)
		share   bool   // the successor shares prev's shapes and labels
		named   string // the router whose edges alone are looked up by name; "*" all of them
		upAfter bool   // the link comes back up in a second step
	}{
		{"fattree core flap", fattree, down("agg-0-0", "core-0"), true, "", true},
		{"wan flap", wanWithPolicies(), func(net *config.Network) { net.Links[len(net.Links)-1].Down = true }, true, "", false},
		{"origin edit", fattree, func(net *config.Network) {
			r := clone(net, "edge-0-0")
			r.Originate = append(r.Originate, netip.MustParsePrefix("10.250.1.0/24"))
		}, true, "edge-0-0", false},
		// agg-0-0 is the first router to learn from edge-0-0, so the flap
		// moves the first sight of edge-0-0's export shape behind those of
		// edge-0-1 to edge-0-5.
		{"first-sight flap", fattree, down("agg-0-0", "edge-0-0"), false, "", false},
		{"community match", fattree, func(net *config.Network) {
			r := clone(net, "core-0")
			r.CloneEnv()
			r.Env.CommunityLists["NEW"] = &policy.CommunityList{Name: "NEW", Communities: []protocols.Community{protocols.MakeCommunity(65001, 9)}}
			r.Env.RouteMaps["NEW"] = &policy.RouteMap{Name: "NEW", Clauses: []policy.Clause{{Seq: 1, Action: policy.Permit, Matches: []policy.Match{{Kind: policy.MatchCommunity, Arg: "NEW"}}}}}
			for _, nb := range r.BGP.Neighbors {
				nb.ImportMap = "NEW"
			}
		}, false, "*", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := mustNew(t, tc.net)
			net := b.Cfg.Fork()
			tc.edit(net)
			s, err := b.Successor(net)
			if err != nil {
				t.Fatal(err)
			}
			if d := builderDiff(s, mustNew(t, net)); d != "" {
				t.Fatal(d)
			}
			same := func(x, y any) bool { return reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer() }
			if share := same(s.tab.shapes, b.tab.shapes) && same(s.tab.labels, b.tab.labels); share != tc.share {
				t.Fatalf("shapes and labels shared: %v, want %v", share, tc.share)
			}
			if tc.named != "*" && !(same(s.tab.sigRMs, b.tab.sigRMs) && same(s.tab.sigACLs, b.tab.sigACLs)) {
				t.Fatal("a splice must share the policy tables")
			}
			for _, n := range []int{cap(s.tab.shapes) - len(s.tab.shapes), cap(s.tab.labels) - len(s.tab.labels), cap(s.tab.sigRMs) - len(s.tab.sigRMs), cap(s.tab.sigACLs) - len(s.tab.sigACLs), cap(s.tab.rmLists) - len(s.tab.rmLists), cap(s.tab.matchRMs) - len(s.tab.matchRMs)} {
				if n != 0 && tc.named != "*" {
					t.Fatal("a shared table must be clipped, or an append to it would write into the predecessor's")
				}
			}
			// An equal predecessor, marked: the successor on net must look
			// up by name exactly the edges touching tc.named.
			m := mustNew(t, tc.net)
			ms := lookedUp(t, m, net, func(u, v string) bool { return tc.named == "*" || u == tc.named || v == tc.named })
			if !tc.upAfter {
				return
			}
			// The link back up: only the two edges it adds are looked up.
			up := s.Cfg.Fork()
			up.Links[up.FindLink("agg-0-0", "core-0")].Down = false
			s2, err := s.Successor(up)
			if err != nil {
				t.Fatal(err)
			}
			if d := builderDiff(s2, mustNew(t, up)); d != "" {
				t.Fatal(d)
			}
			if !same(s2.tab.shapes, b.tab.shapes) {
				t.Fatal("a link up must share the tables")
			}
			lookedUp(t, ms, up, func(u, v string) bool { return u+v == "agg-0-0core-0" || u+v == "core-0agg-0-0" })
		})
	}
}

// lookedUp marks every edge of p with an area-crossing bit, builds p's
// successor on net and requires that an edge lost the mark — was looked up
// by name, not copied — exactly where want says, among the edges whose
// adjacency has no such bit of its own (the marks make the successor's
// content labels differ from New's, so only the marks are read).
func lookedUp(t *testing.T, p *Builder, net *config.Network, want func(u, v string) bool) *Builder {
	t.Helper()
	real := mustNew(t, net).tab.ospfCross
	for i := range p.tab.ospfCross {
		p.tab.ospfCross[i] = true
	}
	s, err := p.Successor(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range s.tab.edges {
		u, v := s.G.Name(e.U), s.G.Name(e.V)
		if named := !s.tab.ospfCross[i]; !real[i] && named != want(u, v) {
			t.Fatalf("edge %s-%s looked up by name: %v, want %v", u, v, named, want(u, v))
		}
	}
	return s
}

func mustNew(t *testing.T, net *config.Network) *Builder {
	t.Helper()
	b, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOneFaultOneError: a router with a fault under each of its neighbors
// gets one error, whatever order its maps are walked in. Fifty New calls and
// a Successor on the same network name the same fault, the one under the
// least neighbor name.
func TestOneFaultOneError(t *testing.T) {
	base := netgen.Fattree(6, netgen.PolicyShortestPath)
	b := mustNew(t, base)
	net := base.Fork()
	r := net.Routers["agg-0-0"].Clone()
	net.Routers["agg-0-0"] = r
	for i, peer := range slices.Sorted(maps.Keys(r.BGP.Neighbors)) {
		r.BGP.Neighbors[peer].ImportMap = fmt.Sprintf("MISSING-%d", i)
	}
	_, err := b.Successor(net)
	if err == nil || !strings.Contains(err.Error(), `"MISSING-0"`) {
		t.Fatalf("Successor says %v, want the fault under the least neighbor, MISSING-0", err)
	}
	for range 50 {
		if _, err2 := New(net); err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("New says %v, Successor %v", err2, err)
		}
	}
}
