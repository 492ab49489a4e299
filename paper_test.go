package bonsai_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/oracle"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
	"bonsai/internal/verify"
)

// TestPaperNumbers holds the reproduction of the paper to the values
// EXPERIMENTS.md records: Figures 2–3's BGP gadget, and from the evaluation
// (§8) Table 1(a)'s closed forms, Table 1(b)'s sizes and roles, Figure 11's
// policy comparison, Figure 12's shape and the §8 single query. Every value
// is exact; timings stay with the benchmarks in bench_test.go. -short skips
// Table 1(a)'s three largest networks.
func TestPaperNumbers(t *testing.T) {
	// Figures 2–3: the gadget's b routers each prefer routes learned from
	// another b, so loop prevention leaves one of them routing direct. Only
	// case splitting the b group into |prefs| = 2 copies is sound
	// (Theorem 4.5); the same partition assembled without it is not.
	t.Run("Figure3", func(t *testing.T) {
		src, err := os.ReadFile("testdata/regress/figure2.cfg")
		if err != nil {
			t.Fatal(err)
		}
		net, err := config.ParseString(string(src))
		if err != nil {
			t.Fatal(err)
		}
		b := mustBuild(t, net)
		cls := b.Classes()[0]
		inst, err := b.Instance(cls)
		if err != nil {
			t.Fatal(err)
		}
		sols, complete := srp.Solutions(inst, srp.Budget)
		if !complete {
			t.Errorf("the gadget's solutions are not complete within srp.Budget (%d found)", len(sols))
		}
		directs := make(map[string]bool)
		for i, sol := range sols {
			hops, direct := make(map[string]string), ""
			for _, name := range []string{"b1", "b2", "b3"} {
				var to []string
				for _, v := range sol.Fwd[b.G.MustLookup(name)] {
					to = append(to, b.G.Name(v))
				}
				if hops[name] = strings.Join(to, ","); hops[name] == "d" {
					direct = name
				}
			}
			want := map[string]string{"b1": direct, "b2": direct, "b3": direct}
			want[direct] = "d"
			if !maps.Equal(hops, want) {
				t.Errorf("solution %d: the b routers forward %v, want one to d and the other two to it", i, hops)
			}
			directs[direct] = true
		}
		if len(sols) != 3 || len(directs) != 3 {
			t.Errorf("%d stable solutions routing %d distinct b routers direct, want 3 and 3", len(sols), len(directs))
		}

		comp := b.NewCompiler(true)
		abs, err := b.Compress(context.Background(), comp, cls)
		if err != nil {
			t.Fatal(err)
		}
		var groups []string
		for gi, ms := range abs.Groups {
			var names []string
			for _, u := range ms {
				names = append(names, b.G.Name(u))
			}
			groups = append(groups, fmt.Sprint(names, "x", len(abs.Copies[gi])))
		}
		got := fmt.Sprint(abs.NumAbstractNodes(), "/", abs.NumAbstractEdges(), " ", groups)
		if want := "4/5 [[a]x1 [b1 b2 b3]x2 [d]x1]"; got != want {
			t.Errorf("abstraction (nodes/links [group x copies]) = %s, want %s", got, want)
		}
		prefs := b.PrefsFunc(cls)
		c := &oracle.Checker{Abs: abs, G: b.G, EdgeKey: b.EdgeKeyFunc(comp, cls)}
		abst, err := b.AbstractInstance(cls, abs)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(c.CheckAll(core.ModeBGP, prefs), oracle.CheckAcrossSolutions(inst, abst, abs)); err != nil {
			t.Errorf("case-split abstraction: %v", err)
		}

		// Figure 3(b): the same partition, one copy per group.
		live := topo.NewEdgeSet(len(b.G.Edges()))
		for i := range b.G.Edges() {
			live.Set(i)
		}
		c.Abs = core.Assemble(b.G, abs.Dest, abs.F, core.AssembleOptions{Mode: core.ModeBGP, LiveEdges: live})
		if n := c.Abs.NumAbstractNodes(); n != 3 {
			t.Errorf("naive abstraction has %d nodes, want 3", n)
		}
		if err := c.CheckAll(core.ModeBGP, prefs); err == nil {
			t.Error("Figure 4's conditions accept the naive abstraction")
		}
		if abst, err = b.AbstractInstance(cls, c.Abs); err != nil {
			t.Fatal(err)
		}
		if oracle.CheckAcrossSolutions(inst, abst, c.Abs) == nil {
			t.Error("the bisimulation check accepts the naive abstraction")
		}
	})

	t.Run("Table1a", func(t *testing.T) {
		for _, r := range []struct {
			family                string
			size                  int
			nodes, links, classes int
			sample                int // classes compressed; 0 = all
		}{
			{"fattree", 6, 45, 108, 18, 0},
			{"fattree", 8, 80, 256, 32, 0},
			{"fattree", 12, 180, 864, 72, 0},
			{"fattree", 30, 1125, 13500, 450, 1},
			{"ring", 20, 20, 20, 20, 0},
			{"ring", 60, 60, 60, 60, 0},
			{"ring", 100, 100, 100, 100, 0},
			{"ring", 1000, 1000, 1000, 1000, 1},
			{"mesh", 10, 10, 45, 10, 0},
			{"mesh", 30, 30, 435, 30, 0},
			{"mesh", 50, 50, 1225, 50, 0},
			{"mesh", 150, 150, 11175, 150, 1},
		} {
			// One class of the paper's largest point per family, not in -short.
			if r.sample == 1 && testing.Short() {
				continue
			}
			name := fmt.Sprint(r.family, "-", r.size)
			b := mustBuild(t, paperNet(r.family, r.size))
			wantNet(t, name, b, r.nodes, r.links, 2*r.links, r.classes)
			n, l := closedForm(r.family, r.size)
			wantEvery(t, name, compressSample(t, b, r.sample), n, l)
		}
	})

	dc := mustBuild(t, netgen.Datacenter(netgen.DCOptions{}))
	t.Run("Table1b", func(t *testing.T) {
		wantNet(t, "datacenter", dc, 197, 1168, 14016, 1297, 120, 30, 4)
		var nodes, links int
		for _, abs := range compressSample(t, dc, 0) {
			nodes += abs.NumAbstractNodes()
			links += abs.NumAbstractEdges()
		}
		if nodes != 9180 || links != 7935 {
			t.Errorf("datacenter: abstract sizes sum to %d/%d over all classes, want 9180/7935", nodes, links)
		}

		wan := mustBuild(t, netgen.WAN(netgen.WANOptions{}))
		wantNet(t, "wan", wan, 1086, 1223, 2446, 924, 138, 138, 138)
		wantEvery(t, "wan", compressSample(t, wan, 12), 124, 160)
	})

	// Figure 11: under prefer-bottom the aggregation routers may use two
	// local preferences, so Figure 4's ∀∀ binds every group edge they are
	// on, at either end, and keeps each pod's apart: 45/68. ∀∀ on their
	// out-edges alone gave 19/28 and is unsound (docs/audit.md §25).
	t.Run("Figure11", func(t *testing.T) {
		want := map[netgen.FattreePolicy][2]int{netgen.PolicyShortestPath: {6, 5}, netgen.PolicyPreferBottom: {45, 68}}
		for policy, size := range want {
			b := mustBuild(t, netgen.Fattree(8, policy))
			abss := compressSample(t, b, 0)
			wantEvery(t, fmt.Sprint("fattree-8 policy ", policy), abss, size[0], size[1])
			for i, cls := range b.Classes()[:4] {
				conc, err := b.Instance(cls)
				abst, err2 := b.AbstractInstance(cls, abss[i])
				if err = errors.Join(err, err2); err == nil {
					err = oracle.CheckAcrossSolutions(conc, abst, abss[i])
				}
				if err != nil {
					t.Errorf("fattree-8 policy %d, class %v: %v", policy, cls.Prefix, err)
				}
			}
		}
	})

	// Figure 12's shape without a clock: both verifiers find every pair
	// reachable, and the abstraction stays at Table 1(a)'s closed form while
	// the concrete network grows, so the work Bonsai saves grows with size.
	// Times stay with BenchmarkFigure12*.
	t.Run("Figure12", func(t *testing.T) {
		for family, sizes := range map[string][]int{"fattree": {4, 6, 8}, "mesh": {10, 20, 40}, "ring": {20, 40}} {
			for _, size := range sizes {
				b, conc, bon, err := allPairs(family, size, 4)
				if err != nil {
					t.Fatal(err)
				}
				// Pairs are counted on the network solved: nodes-1 per class.
				n, _ := closedForm(family, size)
				cp, bp := int64(b.G.NumNodes()-1)*4, int64(n-1)*4
				got := [5]int64{conc.Pairs, conc.ReachablePairs, bon.Pairs, bon.ReachablePairs, bon.AbstractNodeSum}
				if want := [5]int64{cp, cp, bp, bp, int64(n) * 4}; got != want {
					t.Errorf("%s-%d: concrete pairs/reachable, bonsai pairs/reachable/abstract nodes = %v, want %v",
						family, size, got, want)
				}
			}
		}
	})

	t.Run("Query", func(t *testing.T) {
		dest := dc.Cfg.Routers["leaf-0-00"].Originate[0].String()
		cls, src, err := verify.ResolveQuery(dc, "leaf-1-00", dest)
		if err != nil {
			t.Fatal(err)
		}
		for _, bonsai := range []bool{false, true} {
			reach, err := verify.ClassReach(context.Background(), dc, nil, cls, bonsai)
			if err != nil || !reach.Router(src).Every {
				t.Errorf("leaf-1-00 -> %s (bonsai %v): reachable %v, err %v", dest, bonsai, err == nil && reach.Router(src).Every, err)
			}
		}
	})
}

// paperNet is the synthetic network of Table 1(a) and Figure 12: a
// shortest-path fat-tree of arity size, or a ring or full mesh of size
// routers.
func paperNet(family string, size int) *config.Network {
	switch family {
	case "fattree":
		return netgen.Fattree(size, netgen.PolicyShortestPath)
	case "ring":
		return netgen.Ring(size)
	case "mesh":
		return netgen.FullMesh(size)
	}
	panic("unknown family " + family)
}

// closedForm is Table 1(a)'s abstract size of every class: 6/5 for a
// fat-tree, n/2+1 / n/2 for a ring of n routers, 2/1 for a full mesh.
func closedForm(family string, size int) (nodes, links int) {
	switch family {
	case "fattree":
		return 6, 5
	case "ring":
		return size/2 + 1, size / 2
	}
	return 2, 1
}

// allPairs is one Figure 12 point: all-pairs reachability over the first
// maxClasses classes of a freshly built network, on one worker with
// per-pair certification, concretely and through Bonsai (compression
// included).
func allPairs(family string, size, maxClasses int) (b *build.Builder, conc, bon *verify.Result, err error) {
	opts := verify.Options{MaxClasses: maxClasses, Workers: 1, PerPairCertification: true}
	if b, err = build.New(paperNet(family, size)); err == nil {
		conc, err = verify.AllPairsConcrete(context.Background(), b, opts)
	}
	if err == nil {
		bon, err = verify.AllPairsBonsai(context.Background(), b, opts)
	}
	return b, conc, bon, err
}

func mustBuild(t *testing.T, net *config.Network) *build.Builder {
	t.Helper()
	b, err := build.New(net)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compressSample compresses n of b's classes, stride-sampled, or all of them
// when n is 0, and returns the abstractions in class order.
func compressSample(t *testing.T, b *build.Builder, n int) []*core.Abstraction {
	t.Helper()
	classes, stride := b.Classes(), 1
	if n > 0 {
		stride = len(classes) / n
	}
	comp := b.NewCompiler(true)
	var out []*core.Abstraction
	for i := 0; i < len(classes) && (n == 0 || len(out) < n); i += stride {
		abs, err := b.Compress(context.Background(), comp, classes[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, abs)
	}
	return out
}

// wantNet checks a network's nodes, links, interfaces and classes and, when
// want goes on, its roles without erasure, with unused-tag erasure, and with
// erasure while ignoring statics.
func wantNet(t *testing.T, name string, b *build.Builder, want ...int) {
	t.Helper()
	got := []int{b.G.NumNodes(), b.G.NumLinks(), b.Cfg.NumInterfaces(), len(b.Classes())}
	if len(want) > len(got) {
		got = append(got, b.RoleCount(false, false), b.RoleCount(true, false), b.RoleCount(true, true))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: nodes/links/interfaces/classes[/roles] = %v, want %v", name, got, want)
	}
}

func wantEvery(t *testing.T, name string, abss []*core.Abstraction, nodes, links int) {
	t.Helper()
	for i, abs := range abss {
		if abs.NumAbstractNodes() != nodes || abs.NumAbstractEdges() != links {
			t.Errorf("%s: abstraction %d is %d/%d, want %d/%d",
				name, i, abs.NumAbstractNodes(), abs.NumAbstractEdges(), nodes, links)
			return
		}
	}
}
