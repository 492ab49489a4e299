package verify

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/netgen"
	"bonsai/internal/srp"
)

func mustBuilder(t testing.TB, net *config.Network) *build.Builder {
	t.Helper()
	b, err := build.New(net)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func regress(t testing.TB, name string) *config.Network {
	t.Helper()
	src, err := os.ReadFile("../../testdata/regress/" + name + ".cfg")
	if err != nil {
		t.Fatal(err)
	}
	net, err := config.ParseString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestCertificateSound: on small networks of every family (both fat-tree
// policies, both spine-leaf policies, the datacenter and the WAN with their
// static routes and redistribution) every class Builder.CertifiesUnique
// certifies has exactly one stable solution, by a complete enumeration of
// its concrete instance and of its abstract one. Every other class is
// decided by enumeration within srp.Budget. The stable-paths gadgets must
// not be certified: each has several solutions or none.
func TestCertificateSound(t *testing.T) {
	nets := map[string]*config.Network{
		"fattree-4":          netgen.Fattree(4, netgen.PolicyShortestPath),
		"fattree-6":          netgen.Fattree(6, netgen.PolicyShortestPath),
		"fattree-4-bottom":   netgen.Fattree(4, netgen.PolicyPreferBottom),
		"ring-7":             netgen.Ring(7),
		"mesh-5":             netgen.FullMesh(5),
		"spineleaf":          netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: 2, Leaves: 4, ExtPerLeaf: 1, PrefixesPerExt: 1}),
		"spineleaf-external": netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: 2, Leaves: 4, ExtPerLeaf: 1, PrefixesPerExt: 1, PreferExternal: true}),
		"datacenter": netgen.Datacenter(netgen.DCOptions{
			Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
			PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
		}),
		"wan": netgen.WAN(netgen.WANOptions{Backbone: 6, Sites: 4, SwitchesPerSite: 3}),
	}
	for _, g := range []string{"figure2", "disagree", "badgadget"} {
		nets[g] = regress(t, g)
	}
	ctx := context.Background()
	for name, net := range nets {
		b := mustBuilder(t, net)
		comp := b.NewCompiler(true)
		certified := 0
		for _, cls := range b.Classes() {
			if !b.CertifiesUnique(cls) {
				// Uncertified classes are decided by enumeration, within
				// the budget.
				conc, err := b.Instance(cls)
				if err != nil {
					t.Fatal(err)
				}
				if sols, complete := srp.Solutions(conc, srp.Budget); !complete {
					t.Errorf("%s class %v: not decided within srp.Budget (%d solutions found)", name, cls.Prefix, len(sols))
				}
				continue
			}
			certified++
			abs, err := b.Compress(ctx, comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			conc, err := b.Instance(cls)
			if err != nil {
				t.Fatal(err)
			}
			abst, err := b.AbstractInstance(cls, abs)
			if err != nil {
				t.Fatal(err)
			}
			for side, inst := range map[string]*srp.Instance{"concrete": conc, "abstract": abst} {
				if sols, complete := srp.Solutions(inst, srp.Budget); !complete || len(sols) != 1 {
					t.Errorf("%s class %v is certified unique, but its %s instance has %d solutions (complete %v)",
						name, cls.Prefix, side, len(sols), complete)
				}
			}
		}
		t.Logf("%s: %d of %d classes certified", name, certified, len(b.Classes()))
		switch name {
		case "figure2", "disagree", "badgadget":
			if certified != 0 {
				t.Errorf("%s: a stable-paths gadget is certified unique", name)
			}
		default:
			if certified == 0 && name != "fattree-4-bottom" && name != "spineleaf-external" {
				t.Errorf("%s: no class certified; the test checks nothing there", name)
			}
		}
	}
}

// TestBoundHoldsOnSolutions holds the multi-protocol Bound hint to what the
// edges carry: on every class of small networks of each family (and the
// gadgets), in the solution Solve finds on the concrete instance and on the
// abstract one, every offer over an edge is no better than the edge's floor,
// and worse than the sender's label where the edge is said to rise. A floor
// or a rise that claims too much would let Solutions skip real solutions.
func TestBoundHoldsOnSolutions(t *testing.T) {
	nets := map[string]*config.Network{
		"fattree-4-bottom":   netgen.Fattree(4, netgen.PolicyPreferBottom),
		"spineleaf-external": netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: 2, Leaves: 4, ExtPerLeaf: 1, PrefixesPerExt: 1, PreferExternal: true}),
		"datacenter": netgen.Datacenter(netgen.DCOptions{
			Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
			PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
		}),
		"wan": netgen.WAN(netgen.WANOptions{Backbone: 6, Sites: 4, SwitchesPerSite: 3}),
	}
	for _, g := range []string{"figure2", "disagree"} {
		nets[g] = regress(t, g)
	}
	ctx := context.Background()
	checked := 0
	for name, net := range nets {
		b := mustBuilder(t, net)
		comp := b.NewCompiler(true)
		for _, cls := range b.Classes() {
			abs, err := b.Compress(ctx, comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			conc, err := b.Instance(cls)
			if err != nil {
				t.Fatal(err)
			}
			abst, err := b.AbstractInstance(cls, abs)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range []*srp.Instance{conc, abst} {
				sols, _ := srp.Solutions(inst, srp.Budget)
				bounded := inst.P.(srp.Bounded)
				for _, sol := range sols {
					for i, e := range inst.G.Edges() {
						offer := inst.P.Transfer(i, e, sol.Label[e.V])
						if offer == nil {
							continue
						}
						checked++
						floor, rises := bounded.Bound(i, e)
						if floor == nil || inst.P.Compare(floor, offer) > 0 {
							t.Fatalf("%s class %v edge %s<-%s: offer %v beats the floor %v", name, cls.Prefix, inst.G.Name(e.U), inst.G.Name(e.V), offer, floor)
						}
						if rises && sol.Label[e.V] != nil && inst.P.Compare(offer, sol.Label[e.V]) <= 0 {
							t.Fatalf("%s class %v edge %s<-%s is said to rise, but carries %v to %v", name, cls.Prefix, inst.G.Name(e.U), inst.G.Name(e.V), sol.Label[e.V], offer)
						}
					}
				}
			}
		}
	}
	t.Logf("%d offers checked", checked)
}

// benchmarkNetworks are the networks bench/run.sh serves and compresses.
func benchmarkNetworks() map[string]*config.Network {
	return map[string]*config.Network{
		"fattree-20":  netgen.Fattree(20, netgen.PolicyShortestPath),
		"fattree-12":  netgen.Fattree(12, netgen.PolicyShortestPath),
		"datacenter":  netgen.Datacenter(netgen.DCOptions{}),
		"wan-30-80-7": netgen.WAN(netgen.WANOptions{Backbone: 30, Sites: 80, SwitchesPerSite: 7}),
	}
}

// TestBenchmarkNetworksCertified pins the benchmark networks to the fast
// path: every class is certified unique, so no query on them enumerates.
func TestBenchmarkNetworksCertified(t *testing.T) {
	for name, net := range benchmarkNetworks() {
		b := mustBuilder(t, net)
		for _, cls := range b.Classes() {
			if !b.CertifiesUnique(cls) {
				t.Errorf("%s: class %v is not certified unique", name, cls.Prefix)
			}
		}
	}
}

// BenchmarkCertifiesUnique times the certificate over every class of each
// benchmark network; ns/op and B/op are per class.
func BenchmarkCertifiesUnique(b *testing.B) {
	for _, name := range []string{"fattree-20", "fattree-12", "datacenter", "wan-30-80-7"} {
		bd := mustBuilder(b, benchmarkNetworks()[name])
		classes := bd.Classes()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC()
			for i := 0; i < b.N; i++ {
				if !bd.CertifiesUnique(classes[i%len(classes)]) {
					b.Fatal(fmt.Sprint("not certified: ", classes[i%len(classes)].Prefix))
				}
			}
		})
	}
}
