package trie

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// refLongestMatch is a linear reference implementation of longest-prefix
// matching for cross-checking the trie.
func refLongestMatch(prefixes []netip.Prefix, addr netip.Addr) (netip.Prefix, bool) {
	best, bits := netip.Prefix{}, -1
	for _, p := range prefixes {
		if p.Contains(addr) && p.Bits() > bits {
			best, bits = p, p.Bits()
		}
	}
	return best, bits >= 0
}

// refFullyShadowed reports whether every address of c has a strictly longer
// inserted match, via exact interval arithmetic on uint32 ranges.
func refFullyShadowed(prefixes []netip.Prefix, c netip.Prefix) bool {
	toRange := func(p netip.Prefix) (uint32, uint64) {
		b := p.Addr().As4()
		lo := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		size := uint64(1) << (32 - p.Bits())
		return lo, uint64(lo) + size
	}
	clo, chi := toRange(c)
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, p := range prefixes {
		if p.Bits() <= c.Bits() {
			continue
		}
		plo, phi := toRange(p)
		if uint64(plo) >= uint64(clo) && phi <= chi {
			ivs = append(ivs, iv{uint64(plo), phi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	cursor := uint64(clo)
	for _, v := range ivs {
		if v.lo > cursor {
			return false
		}
		if v.hi > cursor {
			cursor = v.hi
		}
	}
	return cursor >= chi
}

func randPrefix(rng *rand.Rand) netip.Prefix {
	bits := rng.Intn(25) + 8
	addr := netip.AddrFrom4([4]byte{
		byte(rng.Intn(4) * 64), byte(rng.Intn(8) * 32), byte(rng.Intn(256)), 0,
	})
	return netip.PrefixFrom(addr, bits).Masked()
}

func TestQuickLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tr := New()
		var prefixes []netip.Prefix
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			p := randPrefix(rng)
			prefixes = append(prefixes, p)
			tr.Insert(p, "x")
		}
		for probe := 0; probe < 50; probe++ {
			addr := netip.AddrFrom4([4]byte{
				byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
			})
			wantP, wantOK := refLongestMatch(prefixes, addr)
			gotP, _, gotOK := lookup(tr, addr)
			if gotOK != wantOK || (gotOK && gotP != wantP) {
				t.Fatalf("trial %d addr %v: trie (%v,%v) vs ref (%v,%v)",
					trial, addr, gotP, gotOK, wantP, wantOK)
			}
		}
	}
}

func TestQuickClassesCoverEveryMatch(t *testing.T) {
	// Property: for every address matched by some prefix, the longest match
	// must appear among Classes() (no class is lost), and every class's own
	// network address must have that class as its longest match (classes
	// are never shadowed).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		tr := New()
		var prefixes []netip.Prefix
		for i := 0; i < 1+rng.Intn(12); i++ {
			p := randPrefix(rng)
			prefixes = append(prefixes, p)
			tr.Insert(p, "o")
		}
		classes := tr.Freeze().Classes()
		inClasses := make(map[netip.Prefix]bool, len(classes))
		for _, c := range classes {
			inClasses[c.Prefix] = true
		}
		for _, c := range classes {
			if refFullyShadowed(prefixes, c.Prefix) {
				t.Fatalf("trial %d: class %v is fully shadowed by longer prefixes", trial, c.Prefix)
			}
		}
		// And the converse: inserted prefixes that are NOT fully shadowed
		// must appear as classes.
		for _, p := range prefixes {
			if !refFullyShadowed(prefixes, p) && !inClasses[p] {
				t.Fatalf("trial %d: live prefix %v missing from classes", trial, p)
			}
		}
		for probe := 0; probe < 40; probe++ {
			addr := netip.AddrFrom4([4]byte{
				byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0,
			})
			if p, ok := refLongestMatch(prefixes, addr); ok && !inClasses[p] {
				t.Fatalf("trial %d: longest match %v of %v missing from classes", trial, p, addr)
			}
		}
	}
}
