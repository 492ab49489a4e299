package build

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// refTables is the map-based derivation of the per-edge protocol state that
// New used before the dense edge-indexed vectors replaced it, kept as the
// reference TestBuilderTablesMatchReference holds them to: one hash map per
// fact, keyed by the edge itself, each filled by its own walk.
type refTables struct {
	sess    map[topo.Edge]bgpSession // namespace of an empty map normalised to nil
	cost    map[topo.Edge]int
	cross   map[topo.Edge]bool
	acl     map[topo.Edge]aclRef
	content map[topo.Edge]string
	nbrs    map[topo.NodeID][]topo.NodeID // sorted undirected neighbours
}

func referenceTables(b *Builder) *refTables {
	r := &refTables{
		sess:    make(map[topo.Edge]bgpSession),
		cost:    make(map[topo.Edge]int),
		cross:   make(map[topo.Edge]bool),
		acl:     make(map[topo.Edge]aclRef),
		content: make(map[topo.Edge]string),
		nbrs:    make(map[topo.NodeID][]topo.NodeID),
	}
	// The topology straight from the configuration, not from b.G.
	for _, l := range b.Cfg.Links {
		if l.Down {
			continue
		}
		u, v := b.G.MustLookup(l.A), b.G.MustLookup(l.B)
		r.nbrs[u] = append(r.nbrs[u], v)
		r.nbrs[v] = append(r.nbrs[v], u)
	}
	rmContent := make(map[rmRef]string)
	for u, ns := range r.nbrs {
		slices.Sort(ns)
		r.nbrs[u] = slices.Compact(ns)
		for _, v := range r.nbrs[u] {
			e := topo.Edge{U: u, V: v}
			ur, vr := b.Cfg.Routers[b.G.Name(u)], b.Cfg.Routers[b.G.Name(v)]
			uName, vName := ur.Name, vr.Name
			var lbl []byte
			if ur.BGP != nil && vr.BGP != nil {
				uNb, vNb := ur.BGP.Neighbors[vName], vr.BGP.Neighbors[uName]
				if uNb != nil && vNb != nil {
					s := bgpSession{
						expEnv: vr.Env, expMap: vNb.ExportMap,
						impEnv: ur.Env, impMap: uNb.ImportMap,
						ibgp:         ur.BGP.ASN == vr.BGP.ASN,
						redistOSPF:   vr.BGP.RedistributeOSPF,
						redistStatic: vr.BGP.RedistributeStatic,
					}
					if s.expMap == "" {
						s.expEnv = nil
					}
					if s.impMap == "" {
						s.impEnv = nil
					}
					r.sess[e] = s
					lbl = append(lbl, 'B')
					lbl = appendFlag(lbl, s.ibgp)
					lbl = appendFlag(lbl, s.redistOSPF)
					lbl = appendFlag(lbl, s.redistStatic)
					lbl = append(lbl, mapContentSig(rmContent, s.expEnv, s.expMap, b.matchedSet)...)
					lbl = append(lbl, '/')
					lbl = append(lbl, mapContentSig(rmContent, s.impEnv, s.impMap, b.matchedSet)...)
				}
			}
			if ur.OSPF != nil && vr.OSPF != nil {
				uIf, uOK := ur.OSPF.Ifaces[vName]
				vIf, vOK := vr.OSPF.Ifaces[uName]
				if uOK && vOK {
					cost := uIf.Cost
					if cost <= 0 {
						cost = 1
					}
					r.cost[e] = cost
					r.cross[e] = uIf.Area != vIf.Area
					lbl = append(lbl, 'O')
					lbl = strconv.AppendInt(lbl, int64(cost), 10)
					lbl = appendFlag(lbl, r.cross[e])
				}
			}
			if name := ur.IfaceACL[vName]; name != "" {
				r.acl[e] = aclRef{env: ur.Env, name: name}
			}
			r.content[e] = string(lbl)
		}
	}
	return r
}

// refStatics is the map-based staticEdges the mask replaced.
func refStatics(b *Builder, cls ec.Class) map[topo.Edge]bool {
	out := make(map[topo.Edge]bool)
	for u, r := range b.routers {
		for _, s := range r.Statics {
			if !staticCovers(s.Prefix, cls.Prefix) {
				continue
			}
			if v, ok := b.G.Lookup(s.NextHop); ok {
				out[topo.Edge{U: topo.NodeID(u), V: v}] = true
			}
		}
	}
	return out
}

// tableScenarios is every netgen family, each healthy and with a seeded
// tenth of its links administratively down.
func tableScenarios() map[string]*config.Network {
	base := map[string]func() *config.Network{
		"fattree-sp": func() *config.Network { return netgen.Fattree(6, netgen.PolicyShortestPath) },
		"fattree-pb": func() *config.Network { return netgen.Fattree(6, netgen.PolicyPreferBottom) },
		"ring":       func() *config.Network { return netgen.Ring(24) },
		"mesh":       func() *config.Network { return netgen.FullMesh(12) },
		"spineleaf":  func() *config.Network { return netgen.SpineLeaf(netgen.SpineLeafOptions{PreferExternal: true}) },
		"datacenter": func() *config.Network { return netgen.Datacenter(netgen.DCOptions{}) },
		"wan": func() *config.Network {
			return netgen.WAN(netgen.WANOptions{Backbone: 8, Sites: 10, SwitchesPerSite: 3})
		},
		"fattree-180": func() *config.Network { return netgen.Fattree(12, netgen.PolicyShortestPath) },
	}
	out := make(map[string]*config.Network)
	for name, gen := range base {
		out[name] = gen()
		faulty := gen()
		rng := rand.New(rand.NewSource(int64(len(faulty.Links))))
		for _, i := range rng.Perm(len(faulty.Links))[:(len(faulty.Links)+9)/10] {
			faulty.Links[i].Down = true
		}
		out[name+"/10%down"] = faulty
	}
	return out
}

// TestBuilderTablesMatchReference holds every dense per-edge vector New
// fills to the map-based derivation it replaced, on every generator family,
// healthy and with links down.
func TestBuilderTablesMatchReference(t *testing.T) {
	for name, net := range tableScenarios() {
		t.Run(name, func(t *testing.T) {
			b, err := New(net)
			if err != nil {
				t.Fatal(err)
			}
			ref, tab := referenceTables(b), b.tab
			if len(tab.edges) != len(ref.content) {
				t.Fatalf("%d edges, reference has %d", len(tab.edges), len(ref.content))
			}
			labelOf := make(map[uint64]string) // content label <-> reference label must be a bijection
			idOf := make(map[string]uint64)
			for i, e := range tab.edges {
				i := int32(i)
				rec := tab.recs[i]
				if tab.rev[i] < 0 || tab.edges[tab.rev[i]] != (topo.Edge{U: e.V, V: e.U}) {
					t.Fatalf("edge %v: rev = %d", e, tab.rev[i])
				}
				want, ok := ref.sess[e]
				if got := tab.shapeOf[i]; (got >= 0) != ok || (ok && tab.shapes[got] != want) {
					t.Fatalf("edge %v: shape %d, reference %+v (present %v)", e, got, want, ok)
				}
				for _, c := range []struct {
					idx  int32
					env  *policy.Env
					name string
				}{{rec.expRM, want.expEnv, want.expMap}, {rec.impRM, want.impEnv, want.impMap}} {
					if (c.idx >= 0) != (c.name != "") || (c.idx >= 0 && tab.sigRMs[c.idx] != rmRef{env: c.env, name: c.name}) {
						t.Fatalf("edge %v: route-map ref %d, reference %q", e, c.idx, c.name)
					}
				}
				cost, ok := ref.cost[e]
				if got := tab.ospfCost[i]; (got >= 0) != ok || (ok && (int(got) != cost || tab.ospfCross[i] != ref.cross[e])) {
					t.Fatalf("edge %v: OSPF cost %d cross %v, reference %d %v (present %v)", e, got, tab.ospfCross[i], cost, ref.cross[e], ok)
				}
				acl, ok := ref.acl[e]
				if got := rec.acl; (got >= 0) != ok || (ok && tab.sigACLs[got] != acl) {
					t.Fatalf("edge %v: ACL ref %d, reference %+v (present %v)", e, got, acl, ok)
				}
				lbl := ref.content[e]
				if l, seen := labelOf[rec.content]; seen && l != lbl {
					t.Fatalf("edge %v: content id %d labels both %q and %q", e, rec.content, l, lbl)
				}
				if id, seen := idOf[lbl]; seen && id != rec.content {
					t.Fatalf("edge %v: label %q has content ids %d and %d", e, lbl, id, rec.content)
				}
				labelOf[rec.content], idOf[lbl] = lbl, rec.content
			}
			for _, u := range b.G.Nodes() {
				lo, hi := tab.out(u)
				var got []topo.NodeID
				for i := lo; i < hi; i++ {
					v := tab.edges[i].V
					got = append(got, v)
					if o, ok := b.G.EdgeIndex(u, v); !ok || int32(o) != i {
						t.Fatalf("EdgeIndex(%d, %d) = %d, %v", u, v, o, ok)
					}
				}
				if !slices.Equal(got, ref.nbrs[u]) {
					t.Fatalf("node %d: neighbours %v, reference %v", u, got, ref.nbrs[u])
				}
			}
			if _, ok := b.G.EdgeIndex(0, 0); ok {
				t.Fatal("EdgeIndex found a self loop")
			}
			for _, rec := range tab.recs {
				if rec.expRM >= int32(len(tab.sigRMs)) || rec.impRM >= int32(len(tab.sigRMs)) {
					t.Fatalf("route-map refs %d, %d out of range", rec.expRM, rec.impRM)
				}
			}
			seenShape := make(map[bgpSession]bool)
			for _, s := range tab.shapes {
				if seenShape[s] {
					t.Fatalf("shape %+v interned twice", s)
				}
				seenShape[s] = true
			}
			for i, r := range tab.sigRMs {
				rm := r.env.RouteMaps[r.name]
				var lists []*policy.PrefixList
				if rm != nil {
					for _, cl := range rm.Clauses {
						for _, m := range cl.Matches {
							if m.Kind == policy.MatchPrefix {
								lists = append(lists, r.env.PrefixLists[m.Arg])
							}
						}
					}
				}
				if !slices.Equal(tab.rmLists[i], lists) {
					t.Fatalf("route map %s: lists %v, reference %v", r.name, tab.rmLists[i], lists)
				}
			}
			// The one class-dependent vector: applicable statics.
			classes := b.Classes()
			for _, ci := range rand.New(rand.NewSource(1)).Perm(len(classes))[:min(len(classes), 12)] {
				mask, want := b.staticMask(classes[ci]), refStatics(b, classes[ci])
				n := 0
				for i, e := range tab.edges {
					on := mask.Has(i)
					if on != want[e] {
						t.Fatalf("class %v edge %v: static %v, reference %v", classes[ci].Prefix, e, on, want[e])
					}
					if on {
						n++
					}
				}
				if mask != nil && n == 0 {
					t.Fatalf("class %v: empty static mask is not nil", classes[ci].Prefix)
				}
			}
		})
	}
}

// TestFingerprintsDeterministicAcrossBuilders: a class fingerprint is a
// function of the configuration, not of the Builder that computed it — two
// Builders fingerprinting the classes in the same order agree string for
// string. It used not to hold: the ACL-verdict suffix followed the iteration
// order of each router's IfaceACL map, which the second network (every
// border interface with an ACL of its own, verdicts alternating) exposes.
func TestFingerprintsDeterministicAcrossBuilders(t *testing.T) {
	perIface := netgen.Datacenter(netgen.DCOptions{})
	for _, r := range perIface.Routers {
		peers := slices.Sorted(maps.Keys(r.IfaceACL))
		for i, peer := range peers {
			name := fmt.Sprint("IF", i)
			r.Env.ACLs[name] = &policy.ACL{Name: name, Entries: []policy.PrefixEntry{
				{Action: policy.Action(i % 2), Prefix: netip.MustParsePrefix("0.0.0.0/0"), Ge: 0, Le: 32},
			}}
			r.IfaceACL[peer] = name
		}
	}
	for name, net := range map[string]*config.Network{"datacenter": netgen.Datacenter(netgen.DCOptions{}), "acl-per-iface": perIface} {
		fingerprints := func() []string {
			b, err := New(net)
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for _, cls := range b.Classes() {
				fp, err := b.ClassFingerprint(cls)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fp)
			}
			return out
		}
		first := fingerprints()
		for round := 0; round < 4; round++ {
			again := fingerprints()
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("%s: class %d fingerprints differ across Builders:\n%s\n%s", name, i, first[i], again[i])
				}
			}
		}
	}
}

// TestBuildNewAllocs is a ceiling on what one New allocates on the
// serve-churn network (Fattree 12: 180 routers, 1 728 directed edges): twice
// the 1 342 objects measured when the per-edge vectors went in, against
// 6 613 with one hash map per fact. A per-edge or per-router map creeping
// back into the constructor fails here, by name, before the benchmark
// notices.
func TestBuildNewAllocs(t *testing.T) {
	net := netgen.Fattree(12, netgen.PolicyShortestPath)
	const ceiling = 2700
	got := testing.AllocsPerRun(5, func() {
		if _, err := New(net); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("build.New on Fattree(12) allocates %.0f objects, ceiling %d", got, ceiling)
	}
}
