package build

import (
	"context"
	"net/netip"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
	"bonsai/internal/topo"
)

// ibgpChain is d -eBGP- b -iBGP- u with an import map on the eBGP side and
// an OSPF adjacency across an area boundary beside the iBGP session: no
// generator emits an iBGP session or an inter-area link.
func ibgpChain() *config.Network {
	n := config.New("ibgp")
	for name, asn := range map[string]int{"d": 65001, "b": 65100, "u": 65100} {
		n.AddRouter(name).EnsureBGP(asn)
	}
	for _, l := range [][2]string{{"d", "b"}, {"b", "u"}} {
		n.AddLink(l[0], l[1])
		n.Routers[l[0]].BGP.Neighbors[l[1]] = &config.Neighbor{}
		n.Routers[l[1]].BGP.Neighbors[l[0]] = &config.Neighbor{}
	}
	n.Routers["d"].Originate = append(n.Routers["d"].Originate, netip.MustParsePrefix("10.0.0.0/24"))
	rb := n.Routers["b"]
	rb.Env.RouteMaps["UP"] = &policy.RouteMap{Name: "UP", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Permit, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 300}}},
	}}
	rb.BGP.Neighbors["d"].ImportMap = "UP"
	rb.EnsureOSPF().Ifaces["u"] = config.OSPFIface{Cost: 5, Area: 0}
	n.Routers["u"].EnsureOSPF().Ifaces["b"] = config.OSPFIface{Cost: 7, Area: 1}
	return n
}

// TestAbstractInstanceInheritsRepresentative: for every class and every
// abstract edge k, each per-edge table of the abstract instance holds at k
// what the concrete instance holds at the index of k's representative, and
// the export and import policies at k do to a probe route what the concrete
// ones do there. An abstract instance that read the Builder's vectors at k —
// an abstract index — instead of through the representative fails here.
func TestAbstractInstanceInheritsRepresentative(t *testing.T) {
	probe := &protocols.BGPAttr{
		LP:    protocols.DefaultLocalPref,
		Comms: protocols.NewCommSet(protocols.MakeCommunity(65000, 1)),
		Path:  []topo.NodeID{0},
	}
	seen := make(map[string]int)
	for _, cfg := range []*config.Network{
		smallDatacenter(),
		// Every feature of the WAN stand-in is per site, so a few sites show
		// what its 132 do.
		netgen.WAN(netgen.WANOptions{Backbone: 6, Sites: 8, SwitchesPerSite: 3}),
		ibgpChain(),
	} {
		b, comp := newBuilder(t, cfg)
		for _, cls := range b.Classes() {
			abs, err := b.Compress(context.Background(), comp, cls)
			if err != nil {
				t.Fatalf("%s class %v: %v", cfg.Name, cls.Prefix, err)
			}
			ci, err := b.Instance(cls)
			if err != nil {
				t.Fatal(err)
			}
			ai, err := b.AbstractInstance(cls, abs)
			if err != nil {
				t.Fatal(err)
			}
			conc, abst := ci.P.(*protocols.Multi), ai.P.(*protocols.Multi)
			at := func(v []bool, i int) bool { return v != nil && v[i] }
			for k, ae := range abs.AbsG.Edges() {
				rep := abs.RepEdge[k]
				i, ok := b.G.EdgeIndex(rep.U, rep.V)
				if !ok {
					t.Fatalf("%s class %v: representative %v is not an edge", cfg.Name, cls.Prefix, rep)
				}
				fail := func(what string, got, want any) {
					t.Helper()
					t.Fatalf("%s class %v: abstract edge %d %s->%s (representative %s->%s, concrete edge %d): %s is %v, the representative's %v",
						cfg.Name, cls.Prefix, k, abs.AbsG.Name(ae.U), abs.AbsG.Name(ae.V),
						b.G.Name(rep.U), b.G.Name(rep.V), i, what, got, want)
				}
				for _, tab := range []struct {
					what       string
					abst, conc []bool
				}{
					{"bgp", abst.BGPEdges, conc.BGPEdges},
					{"ibgp", abst.BGP.IBGP, conc.BGP.IBGP},
					{"ospf", abst.OSPFEdges, conc.OSPFEdges},
					{"cross-area", abst.OSPF.CrossArea, conc.OSPF.CrossArea},
					{"static", abst.Static.Routes, conc.Static.Routes},
				} {
					if got, want := at(tab.abst, k), at(tab.conc, i); got != want {
						fail(tab.what, got, want)
					} else if got {
						seen[tab.what]++
					}
				}
				if abst.OSPFEdges[k] {
					if got, want := abst.OSPF.Cost[k], conc.OSPF.Cost[i]; got != want {
						fail("ospf cost", got, want)
					}
					seen["cost"]++
				}
				if abst.BGPEdges[k] {
					for _, pol := range []struct {
						what       string
						abst, conc protocols.PolicyFunc
					}{
						{"export", abst.BGP.Export, conc.BGP.Export},
						{"import", abst.BGP.Import, conc.BGP.Import},
					} {
						got, want := pol.abst(k, ae, probe), pol.conc(i, rep, probe)
						if (got == nil) != (want == nil) || got != nil && !abst.BGP.Equal(got, want) {
							fail(pol.what+" of the probe", got, want)
						}
						if got != probe {
							seen[pol.what]++
						}
					}
				}
			}
		}
	}
	for _, what := range []string{"bgp", "ibgp", "ospf", "cross-area", "static", "cost", "export", "import"} {
		if seen[what] == 0 {
			t.Errorf("no abstract edge with %s: the comparison never saw one", what)
		}
	}
	t.Logf("abstract edges compared, by table: %v", seen)
}
