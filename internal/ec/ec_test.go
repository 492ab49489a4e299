package ec

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func demoNet() *config.Network {
	n := config.New("demo")
	a := n.AddRouter("a")
	b := n.AddRouter("b")
	c := n.AddRouter("c")
	n.AddLink("a", "b")
	n.AddLink("b", "c")
	a.Originate = []netip.Prefix{pfx("10.0.0.0/24"), pfx("10.0.1.0/24")}
	b.Originate = []netip.Prefix{pfx("10.1.0.0/16")}
	c.Originate = []netip.Prefix{pfx("0.0.0.0/0")}
	return n
}

func TestClasses(t *testing.T) {
	cls := Classes(demoNet())
	if len(cls) != 4 {
		t.Fatalf("classes = %d, want 4: %+v", len(cls), cls)
	}
	// Sorted by prefix: default route first.
	if cls[0].Prefix != pfx("0.0.0.0/0") || cls[0].Origins[0] != "c" {
		t.Fatalf("first class = %+v", cls[0])
	}
	if cls[1].Prefix != pfx("10.0.0.0/24") || cls[1].Origins[0] != "a" {
		t.Fatalf("second class = %+v", cls[1])
	}
}

func TestClassForExactAndCovering(t *testing.T) {
	n := demoNet()
	cls, err := ClassFor(n, "10.1.0.0/16")
	if err != nil || cls.Origins[0] != "b" {
		t.Fatalf("exact lookup: %+v %v", cls, err)
	}
	// An address inside a's /24 resolves to a's class.
	cls, err = ClassFor(n, "10.0.0.128/32")
	if err != nil || cls.Origins[0] != "a" {
		t.Fatalf("covering lookup: %+v %v", cls, err)
	}
	if _, err := ClassFor(n, "not-a-prefix"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAnycastOrigins(t *testing.T) {
	n := demoNet()
	n.Routers["c"].Originate = append(n.Routers["c"].Originate, pfx("10.0.0.0/24"))
	cls := Classes(n)
	for _, c := range cls {
		if c.Prefix == pfx("10.0.0.0/24") {
			if len(c.Origins) != 2 {
				t.Fatalf("anycast origins = %v", c.Origins)
			}
			return
		}
	}
	t.Fatal("class missing")
}

// linearClassFor is the lookup ClassFor used before the index existed:
// enumerate every class, compare prefix strings, then scan for the longest
// class containing the address. It stays here as the reference the indexed
// lookup must agree with.
func linearClassFor(n *config.Network, prefix string) (Class, error) {
	cls := Classes(n)
	for _, c := range cls {
		if c.Prefix.String() == prefix {
			return c, nil
		}
	}
	if p, err := netip.ParsePrefix(prefix); err == nil {
		best, bestBits := Class{}, -1
		for _, c := range cls {
			if c.Prefix.Contains(p.Addr()) && c.Prefix.Bits() > bestBits {
				best, bestBits = c, c.Prefix.Bits()
			}
		}
		if bestBits >= 0 {
			return best, nil
		}
	}
	return Class{}, fmt.Errorf("ec: no destination class for %q", prefix)
}

// TestClassForMatchesLinearReference is the differential test of the index:
// on every generator scenario, extended with a wide prefix over existing
// classes and a prefix its two halves shadow, every query shape must give
// the class (or the error) the linear scan gives.
func TestClassForMatchesLinearReference(t *testing.T) {
	scenarios := map[string]*config.Network{
		"fattree":       netgen.Fattree(4, netgen.PolicyShortestPath),
		"fattree-pref":  netgen.Fattree(6, netgen.PolicyPreferBottom),
		"ring":          netgen.Ring(12),
		"mesh":          netgen.FullMesh(8),
		"spineleaf":     netgen.SpineLeaf(netgen.SpineLeafOptions{PreferExternal: true}),
		"datacenter":    netgen.Datacenter(netgen.DCOptions{Clusters: 2, LeavesPerClus: 4, Cores: 2}),
		"wan":           netgen.WAN(netgen.WANOptions{Backbone: 6, Sites: 8, SwitchesPerSite: 3}),
		"demo":          demoNet(),
		"no-originator": config.New("empty"),
	}
	rng := rand.New(rand.NewSource(12))
	for name, n := range scenarios {
		t.Run(name, func(t *testing.T) {
			queries := []string{
				"10.0.0.0/8", "172.16.0.0/12", "172.16.5.0/24", "172.16.5.77/24",
				"192.0.2.1/32", "0.0.0.0/0", "255.255.255.255/32",
				"2001:db8::/32", "::ffff:10.0.0.1/128", "::/0",
				"", "not-a-prefix", "10.0.0.1", "10.0.0.0/33", "010.0.0.0/8", "10.0.0.0/08", " 10.0.0.0/8",
			}
			if names := n.RouterNames(); len(names) > 0 {
				// A /8 with the generators' /24 classes inside it, and a /24
				// that two /25s shadow completely.
				r := n.Routers[names[0]]
				r.Originate = append(r.Originate, pfx("10.0.0.0/8"),
					pfx("172.16.5.0/24"), pfx("172.16.5.0/25"), pfx("172.16.5.128/25"))
			}
			for _, c := range Classes(n) {
				// A random host address inside the class's range.
				a := c.Prefix.Addr().As4()
				off := uint32(rng.Uint64() & (1<<uint(32-c.Prefix.Bits()) - 1))
				host := netip.AddrFrom4([4]byte{a[0] | byte(off>>24), a[1] | byte(off>>16), a[2] | byte(off>>8), a[3] | byte(off)})
				queries = append(queries, c.Prefix.String(),
					netip.PrefixFrom(host, 32).String(),
					netip.PrefixFrom(host, c.Prefix.Bits()).String())
			}
			idx := NewIndex(n)
			for _, q := range queries {
				want, wantErr := linearClassFor(n, q)
				for form, lookup := range map[string]func() (Class, error){
					"index":    func() (Class, error) { return idx.ClassFor(q) },
					"one-shot": func() (Class, error) { return ClassFor(n, q) },
				} {
					got, err := lookup()
					if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
						t.Fatalf("%s ClassFor(%q): error %v, linear scan says %v", form, q, err, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s ClassFor(%q) = %+v, linear scan says %+v", form, q, got, want)
					}
				}
			}
			if _, err := idx.ClassFor("172.16.5.77/32"); err == nil {
				if avg := testing.AllocsPerRun(50, func() { idx.ClassFor("172.16.5.77/32") }); avg != 0 {
					t.Errorf("an indexed lookup allocates %v times", avg)
				}
			}
		})
	}
}
