package usf

import (
	"math/rand"
	"testing"
)

func TestNewCoarsest(t *testing.T) {
	p := New(5)
	if p.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1", p.NumGroups())
	}
	for i := 0; i < 5; i++ {
		if p.Find(i) != p.Find(0) {
			t.Fatal("coarsest partition not one group")
		}
	}
	if len(p.Members(p.Find(0))) != 5 {
		t.Fatal("group missing members")
	}
}

func TestSplit(t *testing.T) {
	p := New(6)
	created := p.Split([]int{1, 3, 5})
	if len(created) != 1 {
		t.Fatalf("created %d groups, want 1", len(created))
	}
	if p.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", p.NumGroups())
	}
	if p.Find(1) == p.Find(0) || p.Find(1) != p.Find(3) || p.Find(0) != p.Find(2) {
		t.Fatal("split grouping wrong")
	}
	// Splitting out an entire group is a no-op.
	if got := p.Split([]int{1, 3, 5}); len(got) != 0 {
		t.Fatal("full-group split should be a no-op")
	}
	if p.NumGroups() != 2 {
		t.Fatal("no-op split changed group count")
	}
}

func TestSplitAcrossGroups(t *testing.T) {
	p := New(6)
	p.Split([]int{3, 4, 5})
	created := p.Split([]int{0, 3})
	if len(created) != 2 {
		t.Fatalf("created %d, want 2", len(created))
	}
	if p.Find(1) != p.Find(2) || p.Find(4) != p.Find(5) {
		t.Fatal("remainders merged wrongly")
	}
	if p.Find(0) == p.Find(3) {
		t.Fatal("split elements from different groups must stay apart")
	}
}

func TestRefine(t *testing.T) {
	p := New(8)
	split := p.Refine(p.Find(0), func(x int) int64 { return int64(x % 3) })
	if !split {
		t.Fatal("Refine reported no split")
	}
	if p.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", p.NumGroups())
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			if (x%3 == y%3) != (p.Find(x) == p.Find(y)) {
				t.Fatalf("refine grouping wrong at %d,%d", x, y)
			}
		}
	}
	// Refining a uniform group changes nothing.
	if p.Refine(p.Find(0), func(int) int64 { return 7 }) {
		t.Fatal("uniform refine reported split")
	}
}

func TestSnapshotOrdering(t *testing.T) {
	p := New(7)
	p.Refine(p.Find(0), func(x int) int64 { return int64(x % 2) })
	groups, idx := p.Snapshot()
	if len(groups) != 2 {
		t.Fatalf("snapshot groups = %d", len(groups))
	}
	if groups[0][0] != 0 {
		t.Fatal("snapshot not ordered by smallest member")
	}
	for gi, g := range groups {
		for _, x := range g {
			if idx[x] != gi {
				t.Fatal("index map inconsistent")
			}
		}
	}
}

func TestRefineCollect(t *testing.T) {
	p := New(9)
	created, split := p.RefineCollect(p.Find(0), func(x int) int64 { return int64(x % 3) }, nil)
	if !split {
		t.Fatal("RefineCollect reported no split")
	}
	// Key class 0 keeps the group; classes 1 and 2 are created in key order.
	if len(created) != 2 {
		t.Fatalf("created = %v, want 2 groups", created)
	}
	for ci, id := range created {
		for _, x := range p.Members(id) {
			if x%3 != ci+1 {
				t.Fatalf("created group %d holds %d", ci, x)
			}
		}
	}
	// A uniform refine creates nothing and must not touch the scratch result.
	scratch := created[:0]
	scratch, split = p.RefineCollect(p.Find(0), func(int) int64 { return 1 }, scratch)
	if split || len(scratch) != 0 {
		t.Fatal("uniform RefineCollect must report no split and create nothing")
	}
}

// TestRepeatedSplitIsolation carves one large group down with many
// successive splits and verifies no sibling group's members are corrupted —
// the groups share one backing array, so any out-of-range write would show.
func TestRepeatedSplitIsolation(t *testing.T) {
	const n = 128
	p := New(n)
	for k := 0; k < 6; k++ {
		// Split every current group by a different modulus each round.
		for _, id := range append([]int(nil), p.Groups()...) {
			p.Refine(id, func(x int) int64 { return int64(x % (k + 2)) })
		}
		seen := make([]bool, n)
		for _, g := range p.Groups() {
			ms := p.Members(g)
			for i, x := range ms {
				if seen[x] {
					t.Fatalf("element %d appears in two groups after round %d", x, k)
				}
				seen[x] = true
				if i > 0 && ms[i-1] >= x {
					t.Fatalf("group %d not sorted after round %d: %v", g, k, ms)
				}
				if p.Find(x) != g {
					t.Fatalf("Find(%d) = %d, want %d", x, p.Find(x), g)
				}
			}
		}
		for x, ok := range seen {
			if !ok {
				t.Fatalf("element %d lost after round %d", x, k)
			}
		}
	}
}

func TestInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := New(40)
	for step := 0; step < 200; step++ {
		k := rng.Intn(4) + 1
		id := p.Groups()[rng.Intn(p.NumGroups())]
		p.Refine(id, func(x int) int64 { return int64(x % (k + 1)) })
		// Invariant: groups partition 0..39.
		seen := make(map[int]int)
		total := 0
		for _, g := range p.Groups() {
			for _, x := range p.Members(g) {
				seen[x]++
				total++
				if p.Find(x) != g {
					t.Fatal("Find disagrees with Members")
				}
			}
		}
		if total != 40 {
			t.Fatalf("partition lost elements: %d", total)
		}
		for x, c := range seen {
			if c != 1 {
				t.Fatalf("element %d in %d groups", x, c)
			}
		}
	}
}
