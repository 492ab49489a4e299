package server

import (
	"context"
	"maps"
	"os"
	"reflect"
	"testing"

	"bonsai"
	"bonsai/internal/journal"
	"bonsai/internal/netgen"
)

// answerSet is everything one configuration answers, as answer parts only:
// every (router, class) reach compressed and concrete, Verify in both modes,
// Compress with its per-class rows, the Routes of every class, and Roles.
type answerSet struct {
	reach    map[[2]string][2]bonsai.ReachAnswer // (router, class) -> compressed, concrete
	verify   [2]bonsai.VerifyAnswer              // compressed, concrete
	compress bonsai.CompressAnswer
	rows     map[string]bonsai.ClassAnswer
	routes   map[string]bonsai.RoutesReport
	roles    bonsai.RolesReport
}

// answersOf asks eng every question of an answerSet. A compressed reach that
// differs from its concrete one fails at once: that is CP-equivalence, not
// history.
func answersOf(t *testing.T, eng *bonsai.Engine) answerSet {
	t.Helper()
	ctx := context.Background()
	a := answerSet{
		reach:  make(map[[2]string][2]bonsai.ReachAnswer),
		rows:   make(map[string]bonsai.ClassAnswer),
		routes: make(map[string]bonsai.RoutesReport),
	}
	s, err := eng.CompressStream(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range s.Results() {
		a.rows[r.Prefix] = r.ClassAnswer
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	a.compress = s.Report().CompressAnswer
	for i, concrete := range []bool{false, true} {
		rep, err := eng.Verify(ctx, bonsai.VerifyRequest{Concrete: concrete})
		if err != nil {
			t.Fatal(err)
		}
		a.verify[i] = rep.VerifyAnswer
	}
	for _, dest := range eng.Classes() {
		routes, err := eng.Routes(ctx, dest)
		if err != nil {
			t.Fatal(err)
		}
		a.routes[dest] = *routes
		for _, src := range eng.Network().RouterNames() {
			comp, err := eng.Reach(ctx, src, dest)
			if err != nil {
				t.Fatal(err)
			}
			conc, err := eng.ReachConcrete(ctx, src, dest)
			if err != nil {
				t.Fatal(err)
			}
			if comp.ReachAnswer != conc.ReachAnswer {
				t.Fatalf("reach %s -> %s: compressed %+v, concrete %+v", src, dest, comp.ReachAnswer, conc.ReachAnswer)
			}
			a.reach[[2]string{src, dest}] = [2]bonsai.ReachAnswer{comp.ReachAnswer, conc.ReachAnswer}
		}
	}
	roles, err := eng.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	a.roles = *roles
	return a
}

// TestHistoryIndependentAnswers is ROADMAP item 3(c): an answer is a function
// of the configuration alone. One target configuration is reached four ways
// — a cold Open; a delta chain from another configuration, compressing
// before each delta so adoption carries a warm cache; a one-byte memory
// budget, so every answer comes from an evicted and recompressed class; and
// a durable tenant that took the same chain, abandoned unsealed (its data
// directory copied as a kill -9 leaves it) and recovered by a new daemon —
// and every way's answers must equal the cold Open's, on Fattree(4) and on a
// spine-leaf.
func TestHistoryIndependentAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func() *bonsai.Network
	}{
		{"fattree4", func() *bonsai.Network { return netgen.Fattree(4, netgen.PolicyShortestPath) }},
		{"spineleaf", func() *bonsai.Network {
			return netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: 2, Leaves: 3})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			target := tc.net()
			cold, err := bonsai.Open(target)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			want := answersOf(t, cold)

			// The other configuration: two of the last three links down
			// and one more origin. The chain takes the third link down on
			// its way back.
			link := func(i int) []bonsai.LinkRef {
				l := target.Links[len(target.Links)-1-i]
				return []bonsai.LinkRef{{A: l.A, B: l.B}}
			}
			origin := []bonsai.OriginEdit{{Router: target.RouterNames()[0], Prefix: "192.0.2.0/24"}}
			detour, err := bonsai.Open(target)
			if err != nil {
				t.Fatal(err)
			}
			defer detour.Close()
			if _, err := detour.Apply(ctx, bonsai.Delta{LinkDown: append(link(0), link(1)...), AddOriginated: origin}); err != nil {
				t.Fatal(err)
			}
			start := detour.Network()
			chain := []bonsai.Delta{
				{LinkUp: link(0)},
				{LinkDown: link(2)},
				{RemoveOriginated: origin},
				{LinkUp: link(1)},
				{LinkUp: link(2)},
			}

			check := func(way string, eng *bonsai.Engine) {
				t.Helper()
				got := answersOf(t, eng)
				for part, same := range map[string]bool{
					"reach":    maps.Equal(got.reach, want.reach),
					"verify":   got.verify == want.verify,
					"compress": got.compress == want.compress,
					"rows":     maps.Equal(got.rows, want.rows),
					"routes":   reflect.DeepEqual(got.routes, want.routes),
					"roles":    got.roles == want.roles,
				} {
					if !same {
						t.Errorf("%s: %s differ from a cold Open's", way, part)
					}
				}
			}

			chained, err := bonsai.Open(start)
			if err != nil {
				t.Fatal(err)
			}
			defer chained.Close()
			adopted := 0
			for _, d := range chain {
				if _, err := chained.Compress(ctx, bonsai.ClassSelector{}); err != nil {
					t.Fatal(err)
				}
				rep, err := chained.Apply(ctx, d)
				if err != nil {
					t.Fatal(err)
				}
				adopted += rep.Adopted
			}
			if adopted == 0 {
				t.Fatal("the chain adopted nothing")
			}
			check("delta chain", chained)

			evicting, err := bonsai.Open(target, bonsai.WithMemoryBudget(1))
			if err != nil {
				t.Fatal(err)
			}
			defer evicting.Close()
			if _, err := evicting.Compress(ctx, bonsai.ClassSelector{}); err != nil {
				t.Fatal(err)
			}
			if st := evicting.Stats(); st.Evictions == 0 {
				t.Fatalf("a one-byte budget evicted nothing: %+v", st)
			}
			check("evict and recompress", evicting)

			live := t.TempDir()
			s1 := New(Config{DataDir: live, Fsync: journal.SyncNever})
			defer s1.Drain()
			tn, err := s1.reg.open("g", start)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range chain {
				if _, err := tn.eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
					t.Fatal(err)
				}
				if _, err := tn.write(ctx, d); err != nil {
					t.Fatal(err)
				}
			}
			crashed := t.TempDir()
			if err := os.CopyFS(crashed, os.DirFS(live)); err != nil {
				t.Fatal(err)
			}
			s2 := New(Config{DataDir: crashed, Fsync: journal.SyncNever})
			defer s2.Drain()
			recovered, err := s2.reg.get("g")
			if err != nil {
				t.Fatal(err)
			}
			if rec := recovered.journalStats().Recovery; rec == nil || rec.ReplayedDeltas != len(chain) || rec.Gap {
				t.Fatalf("recovery %+v, want the whole chain replayed from the base checkpoint", rec)
			}
			check("crash and recover", recovered.eng)
		})
	}
}
