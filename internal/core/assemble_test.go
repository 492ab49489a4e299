// Assemble against its own past. Until the representative of an abstract
// edge was picked in one pass per source group, Assemble built a 24-byte
// record per live concrete edge and stable-sorted them by group pair. That
// version is kept here, whole and unedited but for package qualifiers, as the
// reference: same canonical partition, same copies and names, the same
// representative for every abstract edge, and abstract edges inserted in the
// same order — AbsG.Succ order is what srp.Solve breaks ties by, and the
// sorted Edges() comparison of requireIdentical cannot see it.
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/core"
	"bonsai/internal/netgen"
	"bonsai/internal/topo"
)

// assembleReference is core.Assemble as it stood before the one-pass
// representative selection.
func assembleReference(g *topo.Graph, dest topo.NodeID, groupOf []int, opt core.AssembleOptions) *core.Abstraction {
	prefs := opt.Prefs
	if prefs == nil {
		prefs = func(topo.NodeID) int { return 1 }
	}

	// Canonicalise the partition: groups ordered by smallest member,
	// members sorted. Node iteration is in increasing id, so a group's
	// first-seen member is its smallest and group order follows it. Every
	// caller numbers groups densely (usf ids are bounded by 2·n, snapshot
	// and transport indices by n), so the remapping is a slice, member
	// counts are known before any group slice is built, and all members
	// share one exact-size backing array.
	n := len(groupOf)
	maxID := 0
	for _, gid := range groupOf {
		if gid > maxID {
			maxID = gid
		}
	}
	remap := make([]int32, maxID+1)
	for i := range remap {
		remap[i] = -1
	}
	idx := make([]int, n)
	ng := 0
	for u := 0; u < n; u++ {
		gi := remap[groupOf[u]]
		if gi < 0 {
			gi = int32(ng)
			remap[groupOf[u]] = gi
			ng++
		}
		idx[u] = int(gi)
	}
	counts := make([]int32, ng)
	for _, gi := range idx {
		counts[gi]++
	}
	memberBuf := make([]topo.NodeID, n)
	groups := make([][]topo.NodeID, ng)
	off := 0
	for gi := 0; gi < ng; gi++ {
		c := int(counts[gi])
		groups[gi] = memberBuf[off : off : off+c]
		off += c
	}
	for u := 0; u < n; u++ {
		groups[idx[u]] = append(groups[idx[u]], topo.NodeID(u))
	}

	edges, live := g.Edges(), opt.LiveEdges
	abs := &core.Abstraction{
		Dest:        dest,
		F:           idx,
		Groups:      groups,
		Iterations:  opt.Iterations,
		ColorSplits: opt.ColorSplits,
	}

	// BGP case splitting (paper §4.3, Theorem 4.4): each abstract node is
	// duplicated once per possible local-preference value its members can
	// use. The destination is never split.
	splits := make([]int, ng)
	numCopies := 0
	for i, ms := range abs.Groups {
		splits[i] = 1
		if opt.Mode == core.ModeBGP && abs.F[dest] != i {
			for _, u := range ms {
				if k := prefs(u); k > splits[i] {
					splits[i] = k
				}
			}
			// A solution assigns each concrete node one behavior, so a
			// group never needs more copies than members (and the refined
			// mapping f_r of Theorem 4.5 must be onto the copies).
			if splits[i] > len(ms) {
				splits[i] = len(ms)
			}
		}
		numCopies += splits[i]
	}

	absG := topo.New()
	copyBuf := make([]topo.NodeID, 0, numCopies)
	abs.Copies = make([][]topo.NodeID, ng)
	for i, ms := range abs.Groups {
		rep := g.Name(ms[0])
		start := len(copyBuf)
		for c := 0; c < splits[i]; c++ {
			name := "~" + rep
			if splits[i] > 1 {
				name = fmt.Sprintf("~%s#%d", rep, c)
			}
			copyBuf = append(copyBuf, absG.AddNode(name))
		}
		abs.Copies[i] = copyBuf[start:len(copyBuf):len(copyBuf)]
	}
	abs.AbsDest = abs.Copies[abs.F[dest]][0]

	// Abstract edges: one per pair of groups joined by a live concrete
	// edge, expanded across split copies (copies of the same group connect
	// to each other but never to themselves: SRPs are self-loop-free). The
	// group-pair ids are dense, so representative selection is a sort over
	// packed (pair, edge) words — ascending pair order, and within a pair
	// the first live edge in g.Edges() order, exactly as the map-based
	// grouping used to pick — instead of two maps per assembly.
	type pairRep struct {
		pair uint64
		rep  topo.Edge
	}
	prs := make([]pairRep, 0, len(edges))
	for i, e := range edges {
		if !live.Has(i) {
			continue
		}
		prs = append(prs, pairRep{uint64(uint32(idx[e.U]))<<32 | uint64(uint32(idx[e.V])), e})
	}
	slices.SortStableFunc(prs, func(a, b pairRep) int {
		switch {
		case a.pair < b.pair:
			return -1
		case a.pair > b.pair:
			return 1
		}
		return 0
	})
	// Size RepEdge by distinct group pairs, not live edges: regular
	// networks map tens of thousands of concrete edges onto a handful of
	// abstract ones, and an over-sized map here dominates assembly cost.
	pairs := 0
	for s := 0; s < len(prs); s++ {
		if s == 0 || prs[s].pair != prs[s-1].pair {
			pairs++
		}
	}
	repOf := make(map[topo.Edge]topo.Edge, pairs)
	for s := 0; s < len(prs); {
		t := s + 1
		for t < len(prs) && prs[t].pair == prs[s].pair {
			t++
		}
		a, b := int(prs[s].pair>>32), int(uint32(prs[s].pair))
		rep := prs[s].rep
		for _, ca := range abs.Copies[a] {
			for _, cb := range abs.Copies[b] {
				if ca == cb {
					continue
				}
				absG.AddEdge(ca, cb)
				if _, ok := repOf[topo.Edge{U: ca, V: cb}]; !ok {
					repOf[topo.Edge{U: ca, V: cb}] = rep
				}
			}
		}
		s = t
	}
	abs.AbsG = absG
	// The reference keys representatives by abstract edge; production holds
	// them as the vector aligned with AbsG.Edges().
	abs.RepEdge = make([]topo.Edge, 0, len(repOf))
	for _, e := range absG.Edges() {
		abs.RepEdge = append(abs.RepEdge, repOf[e])
	}
	return abs
}

// requireSameAssembly is requireIdentical plus, per abstract node, equal
// successor lists in insertion order.
func requireSameAssembly(t *testing.T, tag string, got, want *core.Abstraction) {
	t.Helper()
	requireIdentical(t, tag, got, want)
	for u := 0; u < want.AbsG.NumNodes(); u++ {
		if g, w := got.AbsG.Succ(topo.NodeID(u)), want.AbsG.Succ(topo.NodeID(u)); !slices.Equal(g, w) {
			t.Fatalf("%s: abstract node %s: successor order %v, reference %v", tag, want.AbsG.Name(topo.NodeID(u)), g, w)
		}
	}
}

// targetCounts is, per group id of groupOf, how many distinct groups the
// live edges of its members reach, itself included: the exact counts
// AssembleOptions.Targets takes.
func targetCounts(g *topo.Graph, groupOf []int, live topo.EdgeSet) []int32 {
	counts := make([]int32, slices.Max(groupOf)+1)
	seen := make(map[[2]int]bool)
	for i, e := range g.Edges() {
		if pair := [2]int{groupOf[e.U], groupOf[e.V]}; live.Has(i) && !seen[pair] {
			seen[pair] = true
			counts[pair[0]]++
		}
	}
	return counts
}

// TestAssembleMatchesReference runs both assemblies over random graphs in
// diff_test.go's recipe — with a random partition under a sparse random
// numbering, random liveness, and prefs that split groups into copies — and
// over the partitions refinement finds on the generator networks. Each input
// is assembled twice: with no target counts, and with the exact counts, at
// which every group's scan stops early and must still meet the reference.
func TestAssembleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	split := 0
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(36)
		g := topo.New()
		ids := make([]topo.NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(fmt.Sprintf("n%02d", i))
		}
		for i := 1; i < n; i++ {
			g.AddLink(ids[i], ids[rng.Intn(i)])
		}
		for e := 0; e < n; e++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				g.AddLink(ids[a], ids[b])
			}
		}
		ngroups := 1 + rng.Intn(n)
		groupOf := make([]int, n)
		for u := range groupOf {
			groupOf[u] = 2 * rng.Intn(ngroups)
		}
		live := topo.NewEdgeSet(g.NumEdges())
		for i := range g.NumEdges() {
			if rng.Intn(4) != 0 {
				live.Set(i)
			}
		}
		prefs := make([]int, n)
		for i := range prefs {
			prefs[i] = 1 + rng.Intn(3)*rng.Intn(2)
		}
		dest := ids[rng.Intn(n)]
		for _, mode := range []core.Mode{core.ModeEffective, core.ModeBGP} {
			opt := core.AssembleOptions{
				Mode:       mode,
				Prefs:      func(u topo.NodeID) int { return prefs[u] },
				LiveEdges:  live,
				Iterations: trial,
			}
			tag := fmt.Sprintf("trial %d mode %d (n=%d groups<=%d)", trial, mode, n, ngroups)
			want := assembleReference(g, dest, groupOf, opt)
			got := core.Assemble(g, dest, groupOf, opt)
			requireSameAssembly(t, tag, got, want)
			if got.AbsG.NumNodes() > len(got.Groups) {
				split++
			}
			opt.Targets = targetCounts(g, groupOf, live)
			requireSameAssembly(t, tag+" (target counts)", core.Assemble(g, dest, groupOf, opt), want)
		}
	}
	if split < 20 {
		t.Fatalf("only %d of 80 random trials split a group into copies", split)
	}

	for _, net := range []*config.Network{
		netgen.Fattree(4, netgen.PolicyShortestPath),
		netgen.Fattree(4, netgen.PolicyPreferBottom),
		netgen.Ring(17),
		netgen.FullMesh(10),
		netgen.Datacenter(netgen.DCOptions{Clusters: 2, LeavesPerClus: 4, Cores: 2, TagGroups: 4}),
		netgen.WAN(netgen.WANOptions{Backbone: 4, Sites: 3, SwitchesPerSite: 2}),
	} {
		bd, err := build.New(net)
		if err != nil {
			t.Fatal(err)
		}
		comp := bd.NewCompiler(true)
		mode := core.ModeEffective
		if bd.HasBGP() {
			mode = core.ModeBGP
		}
		classes := bd.Classes()
		if len(classes) > 24 {
			classes = classes[:24]
		}
		for _, cls := range classes {
			dest := bd.G.MustLookup(cls.Origins[0])
			keys := bd.EdgeKeyVec(comp, cls)
			abs := core.FindAbstraction(bd.G, dest, core.Options{
				Mode: mode, EdgeKeys: keys, Prefs: bd.PrefsFunc(cls),
			})
			live := topo.NewEdgeSet(len(keys))
			for i, k := range keys {
				if !k.Dead() {
					live.Set(i)
				}
			}
			opt := core.AssembleOptions{
				Mode: mode, Prefs: bd.PrefsFunc(cls), LiveEdges: live,
				Iterations: abs.Iterations, ColorSplits: abs.ColorSplits,
			}
			tag := fmt.Sprintf("%s %v", net.Name, cls.Prefix)
			want := assembleReference(bd.G, dest, abs.F, opt)
			requireSameAssembly(t, tag, abs, want)
			requireSameAssembly(t, tag+" (reassembled)", core.Assemble(bd.G, dest, abs.F, opt), want)
			opt.Targets = targetCounts(bd.G, abs.F, live)
			requireSameAssembly(t, tag+" (target counts)", core.Assemble(bd.G, dest, abs.F, opt), want)
		}
	}
}
