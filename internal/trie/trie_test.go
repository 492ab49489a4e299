package trie

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// lookup is the longest-match query: a /32 has no shorter exact form.
func lookup(tr *Trie, addr netip.Addr) (netip.Prefix, []string, bool) {
	c, ok := tr.Freeze().Find(netip.PrefixFrom(addr, 32))
	return c.Prefix, c.Origins, ok
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	tr.Insert(pfx("10.0.0.0/8"), "r1")
	tr.Insert(pfx("10.1.0.0/16"), "r2")
	tr.Insert(pfx("10.1.0.0/16"), "r3")

	p, origins, ok := lookup(tr, netip.MustParseAddr("10.1.2.3"))
	if !ok || p != pfx("10.1.0.0/16") {
		t.Fatalf("longest match = %v ok=%v", p, ok)
	}
	if len(origins) != 2 || origins[0] != "r2" || origins[1] != "r3" {
		t.Fatalf("origins = %v", origins)
	}

	p, origins, ok = lookup(tr, netip.MustParseAddr("10.2.0.1"))
	if !ok || p != pfx("10.0.0.0/8") || len(origins) != 1 || origins[0] != "r1" {
		t.Fatalf("fallback match wrong: %v %v %v", p, origins, ok)
	}

	if _, _, ok := lookup(tr, netip.MustParseAddr("192.168.0.1")); ok {
		t.Fatal("matched address outside any prefix")
	}
}

func TestClassesDisjoint(t *testing.T) {
	tr := New()
	tr.Insert(pfx("10.0.0.0/24"), "a")
	tr.Insert(pfx("10.0.1.0/24"), "b")
	tr.Insert(pfx("10.0.2.0/24"), "c")
	cls := tr.Freeze().Classes()
	if len(cls) != 3 {
		t.Fatalf("classes = %d, want 3", len(cls))
	}
	if cls[0].Prefix != pfx("10.0.0.0/24") || cls[0].Origins[0] != "a" {
		t.Fatalf("first class = %+v", cls[0])
	}
}

func TestClassesShadowing(t *testing.T) {
	tr := New()
	// /24 split fully into two /25s: the /24 is shadowed everywhere.
	tr.Insert(pfx("10.0.0.0/24"), "cover")
	tr.Insert(pfx("10.0.0.0/25"), "lo")
	tr.Insert(pfx("10.0.0.128/25"), "hi")
	cls := tr.Freeze().Classes()
	if len(cls) != 2 {
		t.Fatalf("classes = %d, want 2 (shadowed /24 must vanish): %+v", len(cls), cls)
	}
	for _, c := range cls {
		if c.Origins[0] == "cover" {
			t.Fatal("shadowed prefix appeared as a class")
		}
	}
}

func TestClassesPartialShadow(t *testing.T) {
	tr := New()
	tr.Insert(pfx("10.0.0.0/24"), "cover")
	tr.Insert(pfx("10.0.0.0/25"), "lo") // only half shadowed
	cls := tr.Freeze().Classes()
	if len(cls) != 2 {
		t.Fatalf("classes = %d, want 2: %+v", len(cls), cls)
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := New()
	tr.Insert(pfx("0.0.0.0/0"), "gw")
	p, origins, ok := lookup(tr, netip.MustParseAddr("203.0.113.9"))
	if !ok || p.Bits() != 0 || origins[0] != "gw" {
		t.Fatal("default route lookup failed")
	}
	if len(tr.Freeze().Classes()) != 1 {
		t.Fatal("default route should be one class")
	}
}

func TestLenCountsDistinct(t *testing.T) {
	tr := New()
	tr.Insert(pfx("10.0.0.0/24"), "a")
	tr.Insert(pfx("10.0.0.0/24"), "b")
	tr.Insert(pfx("10.0.1.0/24"), "c")
	if n := len(tr.Freeze().Classes()); n != 2 {
		t.Fatalf("classes = %d, want 2", n)
	}
}

func TestRejectIPv6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IPv6 insert did not panic")
		}
	}()
	New().Insert(netip.MustParsePrefix("2001:db8::/32"), "x")
}

// TestClassesSorted proves the enumeration order: the pre-order (node, low,
// high) numbering must equal an explicit (address, prefix length) sort,
// including nested and partially shadowed prefixes.
func TestClassesSorted(t *testing.T) {
	tr := New()
	inserts := []struct {
		p string
		o string
	}{
		{"10.0.0.0/8", "root"},
		{"10.0.0.0/24", "a"},
		{"10.0.0.0/25", "lo"},
		{"10.0.0.128/25", "hi"},
		{"10.0.1.0/24", "b"},
		{"10.128.0.0/9", "upper"},
		{"10.64.3.0/24", "mid"},
		{"0.0.0.0/0", "gw"},
		{"192.168.5.0/24", "edge"},
	}
	for _, in := range inserts {
		tr.Insert(pfx(in.p), in.o)
	}
	got := tr.Freeze().Classes()
	sorted := append([]Class(nil), got...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Prefix.Addr() != sorted[j].Prefix.Addr() {
			return sorted[i].Prefix.Addr().Less(sorted[j].Prefix.Addr())
		}
		return sorted[i].Prefix.Bits() < sorted[j].Prefix.Bits()
	})
	if !reflect.DeepEqual(got, sorted) {
		t.Fatalf("classes out of sorted order:\n got %v\nwant %v", got, sorted)
	}
	// The fully shadowed /24 must not appear; the partially shadowed /8 must.
	seen := map[string]bool{}
	for _, c := range got {
		seen[c.Origins[0]] = true
	}
	if seen["a"] || !seen["root"] || !seen["gw"] {
		t.Fatalf("shadowing wrong: %v", got)
	}
}

// TestFindExactBeforeLongest pins the query semantics: a prefix that is
// itself a class is that class even when a longer class owns its base
// address; a shadowed prefix, or one with host bits set, falls through to
// the longest match of its address; and an Index is a snapshot.
func TestFindExactBeforeLongest(t *testing.T) {
	tr := New()
	tr.Insert(pfx("10.0.0.0/8"), "wide")
	tr.Insert(pfx("10.0.0.0/24"), "cover")
	tr.Insert(pfx("10.0.0.0/25"), "lo")
	tr.Insert(pfx("10.0.0.128/25"), "hi")
	tr.Insert(pfx("10.0.0.128/25"), "hi") // repeated origin collapses
	x := tr.Freeze()
	for q, want := range map[string]string{
		"10.0.0.0/8":    "wide", // exact, though 10.0.0.0 itself belongs to lo
		"10.0.0.0/32":   "lo",
		"10.0.0.0/24":   "lo", // shadowed: never a class
		"10.0.0.200/24": "hi", // host bits set: address lookup
		"10.9.9.9/32":   "wide",
		"10.0.0.128/25": "hi",
	} {
		c, ok := x.Find(netip.MustParsePrefix(q))
		if !ok || len(c.Origins) != 1 || c.Origins[0] != want {
			t.Errorf("Find(%s) = %+v %v, want origin %s", q, c, ok, want)
		}
	}
	for _, q := range []string{"11.0.0.0/8", "2001:db8::/32", "::ffff:10.0.0.1/128"} {
		if c, ok := x.Find(netip.MustParsePrefix(q)); ok {
			t.Errorf("Find(%s) matched %+v", q, c)
		}
	}
	if _, ok := x.Find(netip.Prefix{}); ok {
		t.Error("zero prefix matched")
	}
	tr.Insert(pfx("11.0.0.0/8"), "late")
	if _, ok := x.Find(pfx("11.0.0.0/8")); ok || len(x.Classes()) != 3 {
		t.Error("a frozen index saw a later insert")
	}
	if avg := testing.AllocsPerRun(100, func() { x.Find(pfx("10.0.0.200/32")) }); avg != 0 {
		t.Errorf("Find allocates %v times per call", avg)
	}
}
