package verify

import (
	"context"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

func fattree4(t *testing.T) *build.Builder {
	t.Helper()
	b, err := build.New(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAllPairsConcreteAndBonsaiAgree(t *testing.T) {
	b := fattree4(t)
	conc, err := AllPairsConcrete(context.Background(), b, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bon, err := AllPairsBonsai(context.Background(), b, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// In a healthy fattree everything reaches everything: both verifiers
	// must report full reachability (over their respective node sets).
	if conc.ReachablePairs != conc.Pairs {
		t.Fatalf("concrete: %d/%d reachable", conc.ReachablePairs, conc.Pairs)
	}
	if bon.ReachablePairs != bon.Pairs {
		t.Fatalf("bonsai: %d/%d reachable", bon.ReachablePairs, bon.Pairs)
	}
	if bon.Pairs >= conc.Pairs {
		t.Fatalf("abstract verification should check fewer pairs: %d vs %d",
			bon.Pairs, conc.Pairs)
	}
	if conc.Classes != bon.Classes {
		t.Fatal("class counts must match")
	}
}

func TestAllPairsParallelMatchesSequential(t *testing.T) {
	b := fattree4(t)
	seq, err := AllPairsConcrete(context.Background(), b, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AllPairsConcrete(context.Background(), b, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Answer != par.Answer {
		t.Fatalf("parallel run diverged: seq=%v par=%v", seq, par)
	}
}

func TestAllPairsBonsaiParallelMatchesSequential(t *testing.T) {
	b := fattree4(t)
	seq, err := AllPairsBonsai(context.Background(), b, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AllPairsBonsai(context.Background(), b, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Answer != par.Answer {
		t.Fatalf("parallel bonsai run diverged: seq=%v par=%v", seq, par)
	}
}

func TestMaxClasses(t *testing.T) {
	b := fattree4(t)
	r, err := AllPairsConcrete(context.Background(), b, Options{MaxClasses: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Classes != 3 {
		t.Fatalf("classes = %d, want 3", r.Classes)
	}
}

// reach answers one query as Engine.Reach does: resolve the class and the
// source router, then solve the class.
func reach(ctx context.Context, b *build.Builder, src, dest string, compressed bool) (bool, error) {
	cls, u, err := ResolveQuery(b, src, dest)
	if err != nil {
		return false, err
	}
	set, err := ClassReach(ctx, b, nil, cls, compressed)
	if err != nil {
		return false, err
	}
	return set.Router(u).Every, nil
}

func TestReachQueryBothModes(t *testing.T) {
	b := fattree4(t)
	// Find the prefix originated by edge-0-0.
	dest := b.Cfg.Routers["edge-0-0"].Originate[0].String()
	for _, bonsai := range []bool{false, true} {
		ok, err := reach(context.Background(), b, "edge-1-1", dest, bonsai)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("bonsai=%v: edge-1-1 should reach %s", bonsai, dest)
		}
	}
	// Unknown source errors.
	if _, err := reach(context.Background(), b, "nope", dest, false); err == nil {
		t.Fatal("unknown source accepted")
	}
	// Unknown destination errors.
	if _, err := reach(context.Background(), b, "edge-1-1", "203.0.113.0/24", false); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestReachDetectsACLBlock(t *testing.T) {
	// Block a destination at every aggregation router of its own pod: the
	// query must flip to unreachable, concretely and compressed.
	n := netgen.Fattree(4, netgen.PolicyShortestPath)
	dest := n.Routers["edge-0-0"].Originate[0]
	for _, agg := range []string{"agg-0-0", "agg-0-1"} {
		r := n.Routers[agg]
		txt := "router x\n  acl B deny " + dest.String() + "\n  acl B permit 0.0.0.0/0 le 32\n"
		parsed, err := parseACL(txt)
		if err != nil {
			t.Fatal(err)
		}
		r.Env.ACLs["B"] = parsed
		r.IfaceACL["edge-0-0"] = "B"
	}
	b, err := build.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, bonsai := range []bool{false, true} {
		ok, err := reach(context.Background(), b, "edge-1-1", dest.String(), bonsai)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("bonsai=%v: ACL block not detected", bonsai)
		}
		// The sibling edge router in pod 0 is also cut off (its only
		// paths go through the pod aggs).
		ok, err = reach(context.Background(), b, "edge-0-1", dest.String(), bonsai)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("bonsai=%v: sibling should be blocked too", bonsai)
		}
	}
}

func TestBonsaiSpeedupOnLargerNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	b, err := build.New(netgen.Fattree(8, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := AllPairsConcrete(context.Background(), b, Options{Workers: 1, MaxClasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	bon, err := AllPairsBonsai(context.Background(), b, Options{Workers: 1, MaxClasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("concrete=%v bonsai=%v (incl. compression %v)", conc.Total, bon.Total, bon.Compress)
	if conc.ReachablePairs != conc.Pairs || bon.ReachablePairs != bon.Pairs {
		t.Fatal("reachability broken")
	}
}

// TestAllPairsBonsaiSolvesEachFingerprintOnce holds AllPairsBonsai to one
// abstract solve per fingerprint group, at every worker count, and its
// counts to the sums of solving every class on its own. The datacenter and
// SpineLeaf share fingerprints; WAN{10,20,3} and Fattree(8) have no two
// classes with one. The concrete oracle stays at one solve per class; it is
// clipped to a few classes because a concrete datacenter class takes
// milliseconds.
func TestAllPairsBonsaiSolvesEachFingerprintOnce(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		net    func() *config.Network
		groups int // 0: not pinned
		shared bool
	}{
		{"datacenter", func() *config.Network { return netgen.Datacenter(netgen.DCOptions{}) }, 171, true},
		{"wan", func() *config.Network {
			return netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3})
		}, 0, false},
		{"spineleaf", func() *config.Network {
			return netgen.SpineLeaf(netgen.SpineLeafOptions{PrefixesPerExt: 3})
		}, 0, true},
		{"fattree8", func() *config.Network { return netgen.Fattree(8, netgen.PolicyShortestPath) }, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := build.New(tc.net())
			if err != nil {
				t.Fatal(err)
			}
			classes := ref.Classes()
			key := FingerprintKey(ref)
			seen := make(map[string]bool)
			var groups int
			want := Answer{Mode: "bonsai", Classes: len(classes)}
			comp := ref.NewCompiler(true)
			for _, cls := range classes {
				if k := key(cls); k == "" || !seen[k] {
					groups++
					seen[k] = true
				}
				s, err := solveClass(ctx, ref, comp, cls, true)
				if err != nil {
					t.Fatal(err)
				}
				want.Pairs += s.sources
				want.ReachablePairs += s.delivered
				want.AbstractNodeSum += int64(s.abs.NumAbstractNodes())
			}
			if tc.groups != 0 && groups != tc.groups {
				t.Fatalf("%d fingerprint groups, want %d", groups, tc.groups)
			}
			if shared := groups < len(classes); shared != tc.shared {
				t.Fatalf("%d groups of %d classes: shared = %v, want %v", groups, len(classes), shared, tc.shared)
			}
			t.Logf("%d classes, %d fingerprint groups", len(classes), groups)
			for _, w := range []int{1, 2, 4} {
				b, err := build.New(tc.net())
				if err != nil {
					t.Fatal(err)
				}
				got, err := AllPairsBonsai(ctx, b, Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if got.solves != int64(groups) {
					t.Errorf("workers=%d: %d abstract solves, want one per fingerprint (%d)", w, got.solves, groups)
				}
				if got.Answer != want {
					t.Errorf("workers=%d: %+v, per-class solves give %+v", w, got.Answer, want)
				}
				conc, err := AllPairsConcrete(ctx, b, Options{Workers: w, MaxClasses: 16})
				if err != nil {
					t.Fatal(err)
				}
				if conc.solves != int64(conc.Classes) {
					t.Errorf("workers=%d: %d concrete solves of %d classes", w, conc.solves, conc.Classes)
				}
			}
		})
	}
}
