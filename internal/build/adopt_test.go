package build

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"slices"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/policy"
	"bonsai/internal/topo"
)

// heldEntry returns the completed store entry b holds for cls under the
// fingerprint it memoised, or nil. It reads the memo and never signatures a
// class, so it interns nothing.
func heldEntry(b *Builder, cls ec.Class) *absEntry {
	b.intern.mu.Lock()
	fp, ok := b.fpByPrefix[cls.Prefix]
	b.intern.mu.Unlock()
	if !ok {
		return nil
	}
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	if e := b.store.entries[fp]; e != nil && e.done {
		return e
	}
	return nil
}

// sigDiff names the first field in which two class signatures differ, or
// returns "".
func sigDiff(got, want *classSig) string {
	switch {
	case got.fp != want.fp:
		return fmt.Sprintf("fp %q, want %q", got.fp, want.fp)
	case got.pol != want.pol:
		return fmt.Sprintf("pol %d, want %d", got.pol, want.pol)
	case got.dest != want.dest:
		return fmt.Sprintf("dest %d, want %d", got.dest, want.dest)
	case !slices.Equal(got.origin, want.origin):
		return "origin"
	case !slices.Equal(got.fpIDs, want.fpIDs):
		return fmt.Sprintf("fpIDs %v, want %v", got.fpIDs, want.fpIDs)
	case !slices.Equal(got.aclV, want.aclV):
		return fmt.Sprintf("aclV %v, want %v", got.aclV, want.aclV)
	case !slices.Equal(got.statics, want.statics):
		return "statics"
	case got.nStatic != want.nStatic:
		return fmt.Sprintf("nStatic %d, want %d", got.nStatic, want.nStatic)
	}
	return ""
}

// firstUseOrder lists b's session route maps in the order their first use
// is met along G.Edges(), export map before import map: the order the
// policy tables had before they were keyed by the configuration.
func firstUseOrder(b *Builder) []rmRef {
	var out []rmRef
	for _, r := range b.tab.recs {
		for _, i := range []int32{r.expRM, r.impRM} {
			if i >= 0 && !slices.Contains(out, b.tab.sigRMs[i]) {
				out = append(out, b.tab.sigRMs[i])
			}
		}
	}
	return out
}

// chainStep is one delta of TestInheritedSignaturesMatchRecomputation: it
// edits a private copy of the configuration and names the routers whose
// policies or originated prefixes it touched.
type chainStep struct {
	name string
	edit func(n *config.Network) (touched []string)
}

// TestInheritedSignaturesMatchRecomputation: adoption carries a class's
// signature over from the predecessor instead of recomputing it when both
// Builders hold the same policy references and share one intern table, and
// no static applies to the class (adoption.signature). Along a seeded chain
// of deltas per family — link downs and ups, one of them a link whose loss
// reorders the route maps by first use, an origin added and removed, a
// route-map edit and a link flap after it — every adopted class's stored
// signature must equal classSignature's field by field after every apply.
// Signatures are recomputed in reverse class order, so that a successor
// handing out intern ids from its own table (not its predecessor's) numbers
// them apart from the chain; the route-map edit changes the match outcomes
// of classes that stay adopted, so inheriting across it would keep stale
// ones.
func TestInheritedSignaturesMatchRecomputation(t *testing.T) {
	inheritedAll, recomputedAll := 0, 0
	for _, tc := range []struct {
		name string
		net  *config.Network
	}{
		{"fattree-8", netgen.Fattree(8, netgen.PolicyShortestPath)},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{})},
		{"ring-13", netgen.Ring(13)},
		{"datacenter-small", netgen.Datacenter(netgen.DCOptions{Clusters: 2, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, PrefixesPerLeaf: 2, VirtualIfaces: 1})},
		{"wan-10-20-3", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, uint64(len(tc.name))))
			cur := tc.net
			b, comp := unmanagedBuilder(t, cur)
			compressAll(t, b, comp)
			defer func() { comp.Close() }()

			down := func(i int) chainStep {
				l := tc.net.Links[i]
				return chainStep{l.A + "-" + l.B + " down", func(n *config.Network) []string {
					n.Links[n.FindLink(l.A, l.B)].Down = true
					return nil
				}}
			}
			up := func(i int) chainStep {
				l := tc.net.Links[i]
				return chainStep{l.A + "-" + l.B + " up", func(n *config.Network) []string {
					n.Links[n.FindLink(l.A, l.B)].Down = false
					return nil
				}}
			}
			// The first link whose loss moves a route map's first use.
			reorder := -1
			for i := range tc.net.Links {
				d := tc.net.Fork()
				d.Links[i].Down = true
				nb, err := New(d)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(firstUseOrder(b), firstUseOrder(nb)) {
					reorder = i
					break
				}
			}
			routers := b.Cfg.RouterNames()
			origin := routers[rng.IntN(len(routers))]
			extra := netip.MustParsePrefix("10.254.7.0/24")
			l1, l2, l3 := rng.IntN(len(tc.net.Links)), rng.IntN(len(tc.net.Links)), rng.IntN(len(tc.net.Links))
			steps := []chainStep{down(l1), up(l1)}
			if reorder >= 0 {
				steps = append(steps, down(reorder), up(reorder))
			}
			steps = append(steps, down(l2),
				chainStep{"originate " + extra.String() + " at " + origin, func(n *config.Network) []string {
					r := n.Routers[origin].Clone()
					r.Originate = append(r.Originate, extra)
					n.Routers[origin] = r
					return []string{origin}
				}},
				chainStep{"withdraw " + extra.String() + " at " + origin, func(n *config.Network) []string {
					r := n.Routers[origin].Clone()
					r.Originate = slices.DeleteFunc(r.Originate, func(p netip.Prefix) bool { return p == extra })
					n.Routers[origin] = r
					return []string{origin}
				}},
				up(l2))
			if router, name := sessionMap(b); router != "" {
				// A second copy of the map's first clause: the map permits
				// what it did, but its content changed, and where the clause
				// is a prefix match each class's outcome string for the map
				// doubles, so every signature changes.
				steps = append(steps, chainStep{"edit " + name + " at " + router, func(n *config.Network) []string {
					r := n.Routers[router].Clone()
					r.CloneEnv()
					rm := *r.Env.RouteMaps[name]
					rm.Clauses = append(slices.Clone(rm.Clauses), rm.Clauses[0])
					rm.Clauses[len(rm.Clauses)-1].Seq = rm.Clauses[len(rm.Clauses)-2].Seq + 1000
					r.Env.RouteMaps[name] = &rm
					n.Routers[router] = r
					return []string{router}
				}})
			} else {
				t.Logf("no session route map: no route-map edit")
			}
			steps = append(steps, down(l3), up(l3))

			inherited, recomputed := 0, 0
			for _, step := range steps {
				next := cur.Fork()
				touched := step.edit(next)
				nb, nbComp := unmanagedBuilder(t, next)
				st, err := nb.AdoptFrom(context.Background(), nbComp, b, AdoptDelta{TouchedRouters: touched})
				if err != nil {
					t.Fatal(err)
				}
				classes := slices.Clone(nb.Classes())
				entries := make([]*absEntry, len(classes))
				for i, cls := range classes {
					if e := heldEntry(nb, cls); e != nil && e.out.prov() == ProvAdopted {
						entries[i] = e
					}
				}
				checked := 0
				for i := len(classes) - 1; i >= 0; i-- {
					if entries[i] == nil {
						continue
					}
					checked++
					// An inherited signature shares its vectors with the
					// predecessor's.
					if prev := heldEntry(b, classes[i]); prev != nil && &prev.sig.origin[0] == &entries[i].sig.origin[0] {
						inherited++
					} else {
						recomputed++
					}
					want, err := nb.classSignature(classes[i])
					if err != nil {
						t.Fatal(err)
					}
					if d := sigDiff(entries[i].sig, want); d != "" {
						t.Fatalf("after %s: adopted class %v holds a signature with %s", step.name, classes[i].Prefix, d)
					}
				}
				if checked != st.Adopted {
					t.Fatalf("after %s: %d adopted entries found, AdoptFrom adopted %d", step.name, checked, st.Adopted)
				}
				// AdoptStats sums one outcome per class: each is adopted
				// (unchanged or reassembled), refused or new, and one that
				// is neither new nor refused is held by an adopted entry.
				if st.Adopted != st.Unchanged+st.Reassembled || st.Adopted+st.Invalidated+st.NewClasses != len(classes) {
					t.Fatalf("after %s: %+v does not sum to %d classes", step.name, st, len(classes))
				}
				oldByPrefix := make(map[netip.Prefix]ec.Class)
				for _, cls := range b.Classes() {
					oldByPrefix[cls.Prefix] = cls
				}
				newClasses := 0
				for i, cls := range classes {
					prev, ok := oldByPrefix[cls.Prefix]
					switch {
					case !ok || !slices.Equal(prev.Origins, cls.Origins) || heldEntry(b, prev) == nil:
						newClasses++
					case !slices.Contains(st.InvalidatedPrefixes, cls.Prefix.String()) && entries[i] == nil:
						t.Fatalf("after %s: class %v is neither new nor refused, and no adopted entry holds it", step.name, cls.Prefix)
					}
				}
				if newClasses != st.NewClasses {
					t.Fatalf("after %s: %d classes new to the successor, AdoptFrom counted %d", step.name, newClasses, st.NewClasses)
				}
				compressAll(t, nb, nbComp)
				comp.Close()
				cur, b, comp = next, nb, nbComp
			}
			t.Logf("%d steps (reordering link %d): %d adopted signatures inherited, %d recomputed", len(steps), reorder, inherited, recomputed)
			inheritedAll += inherited
			recomputedAll += recomputed
		})
	}
	if inheritedAll == 0 || recomputedAll == 0 {
		t.Fatalf("%d adopted signatures inherited and %d recomputed: the chain must take both paths", inheritedAll, recomputedAll)
	}
}

// TestInternIdsAgreeWithAServingPredecessor: the predecessor keeps serving
// queries while its successor adopts, so it can intern match-outcome
// strings after the successor took up its table and install the entries the
// adoption then inherits from, and the successor interns strings the
// predecessor never met. An id must name one string in both, or the
// successor could hand an id an inherited signature carries to another
// string, and two classes with different outcomes would share a
// fingerprint. Here the successor (of the same configuration) takes up the
// table while the predecessor has compressed nothing; the predecessor then
// compresses every class, the successor interns a string of its own, as a
// class only it has would, and adopts: every adopted signature must equal
// the successor's recomputation.
func TestInternIdsAgreeWithAServingPredecessor(t *testing.T) {
	net := netgen.Fattree(8, netgen.PolicyShortestPath)
	old, oldComp := newBuilder(t, net)
	b, comp := newBuilder(t, net)
	if !b.shareIntern(old) {
		t.Fatal("a fresh successor must take up its predecessor's intern table")
	}
	compressAll(t, old, oldComp)
	if old.intern.size() == 0 {
		t.Fatal("the predecessor's queries interned nothing: no prefix-matching route map")
	}
	b.intern.mu.Lock()
	b.intern.ids["successor only"] = int32(len(b.intern.ids))
	b.intern.mu.Unlock()
	st, err := b.AdoptFrom(context.Background(), comp, old, AdoptDelta{})
	if err != nil {
		t.Fatal(err)
	}
	classes := b.Classes()
	if st.Adopted != len(classes) {
		t.Fatalf("adopted %d of %d classes of an unchanged configuration", st.Adopted, len(classes))
	}
	for _, cls := range classes {
		e := heldEntry(b, cls)
		if e == nil {
			t.Fatalf("no entry held for adopted class %v", cls.Prefix)
		}
		want, err := b.classSignature(cls)
		if err != nil {
			t.Fatal(err)
		}
		if d := sigDiff(e.sig, want); d != "" {
			t.Fatalf("adopted class %v holds a signature with %s", cls.Prefix, d)
		}
	}
}

// sessionMap names a route map on a live session, one with a prefix match
// if there is one, and the lowest-NodeID router holding it.
func sessionMap(b *Builder) (router, name string) {
	refs := b.tab.sigRMs
	if len(b.tab.matchRMs) > 0 {
		refs = []rmRef{refs[b.tab.matchRMs[0]]}
	}
	for _, ref := range refs {
		for u, r := range b.routers {
			if r.Env == ref.env {
				return b.G.Name(topo.NodeID(u)), ref.name
			}
		}
	}
	return "", ""
}

// TestAdoptionNeedsTheInWitness: removing a live edge (u, v) keeps a
// partition stable only if v still hears from u's group; u still reaching
// v's group is not enough. In the diamond d–v1–u–v2–d, u exports only its
// own prefix, so for d's class v1 and v2 learn nothing from u and only the
// directions toward d are live. With u–v1 down, u still learns from v2 (the
// out-witness holds) but nothing in u's group sends to v1 any more, so v1
// and v2 part, and adoption must not carry the old partition: every
// class's abstraction after the adopting apply equals a cold Builder's.
func TestAdoptionNeedsTheInWitness(t *testing.T) {
	n := config.New("in-witness")
	for i, name := range []string{"d", "v1", "v2", "u"} {
		n.AddRouter(name).EnsureBGP(65001 + i)
	}
	for _, l := range [][2]string{{"d", "v1"}, {"d", "v2"}, {"v1", "u"}, {"v2", "u"}} {
		n.AddLink(l[0], l[1])
		n.Routers[l[0]].BGP.Neighbors[l[1]] = &config.Neighbor{}
		n.Routers[l[1]].BGP.Neighbors[l[0]] = &config.Neighbor{}
	}
	n.Routers["d"].Originate = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}
	u := n.Routers["u"]
	u.Originate = []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")}
	u.Env.PrefixLists["OWN"] = &policy.PrefixList{Name: "OWN", Entries: []policy.PrefixEntry{{Action: policy.Permit, Prefix: u.Originate[0]}}}
	u.Env.RouteMaps["EXPORT-OWN"] = &policy.RouteMap{Name: "EXPORT-OWN", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Permit, Matches: []policy.Match{{Kind: policy.MatchPrefix, Arg: "OWN"}}},
	}}
	for _, nb := range u.BGP.Neighbors {
		nb.ExportMap = "EXPORT-OWN"
	}

	old, oldComp := newBuilder(t, n)
	compressAll(t, old, oldComp)
	dest, err := old.ClassFor("10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	abs, ok := old.CachedAbstraction(dest)
	if v1, v2 := old.G.MustLookup("v1"), old.G.MustLookup("v2"); !ok || abs.F[v1] != abs.F[v2] {
		t.Fatal("before the delta, d's class should group v1 with v2")
	}
	cut := n.Clone()
	cut.Links[cut.FindLink("v1", "u")].Down = true
	succ, succComp := newBuilder(t, cut)
	st, err := succ.AdoptFrom(context.Background(), succComp, old, AdoptDelta{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldComp := newBuilder(t, cut)
	if got, want := abstractSizes(t, succ, succComp), abstractSizes(t, cold, coldComp); !slices.Equal(got, want) {
		t.Fatalf("v1-u down (adopted %d, invalidated %v): abstract nodes/edges per class %v, a cold Builder %v",
			st.Adopted, st.InvalidatedPrefixes, got, want)
	}
	if !slices.Contains(st.InvalidatedPrefixes, "10.0.0.0/24") {
		t.Fatalf("v1-u down: d's class not invalidated (adopted %d, invalidated %v)", st.Adopted, st.InvalidatedPrefixes)
	}
}

// preferBottomOneSession is prefer-bottom Fattree(4) with the preference
// confined to where one link flap changes it: only agg-0-0 imports
// PREF-DOWN, only from edge-0-0, and the map raises the preference of pod
// 1's prefixes alone. With agg-0-0–edge-0-0 up, pod 1's classes hold two
// preferences at agg-0-0; with it down, every class holds one everywhere.
// Pod 0's edge routers import none of pod 1's prefixes, so for their classes
// both directions of the link are dead and no witness refuses them.
func preferBottomOneSession() *config.Network {
	n := netgen.Fattree(4, netgen.PolicyPreferBottom)
	var pod1 []policy.PrefixEntry
	for _, name := range []string{"edge-1-0", "edge-1-1"} {
		pod1 = append(pod1, policy.PrefixEntry{Action: policy.Permit, Prefix: n.Routers[name].Originate[0]})
	}
	for _, name := range n.RouterNames() {
		for peer, nb := range n.Routers[name].BGP.Neighbors {
			if nb.ImportMap == "PREF-DOWN" && (name != "agg-0-0" || peer != "edge-0-0") {
				nb.ImportMap = ""
			}
		}
	}
	pod1Match := []policy.Match{{Kind: policy.MatchPrefix, Arg: "POD1"}}
	agg := n.Routers["agg-0-0"]
	agg.Env.PrefixLists["POD1"] = &policy.PrefixList{Name: "POD1", Entries: pod1}
	agg.Env.RouteMaps["PREF-DOWN"] = &policy.RouteMap{Name: "PREF-DOWN", Clauses: []policy.Clause{
		{Seq: 10, Action: policy.Permit, Matches: pod1Match, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 200}}},
		{Seq: 20, Action: policy.Permit},
	}}
	for _, name := range []string{"edge-0-0", "edge-0-1"} {
		edge := n.Routers[name]
		edge.Env.PrefixLists["POD1"] = agg.Env.PrefixLists["POD1"]
		edge.Env.RouteMaps["NOT-POD1"] = &policy.RouteMap{Name: "NOT-POD1", Clauses: []policy.Clause{
			{Seq: 10, Action: policy.Deny, Matches: pod1Match},
			{Seq: 20, Action: policy.Permit},
		}}
		for _, nb := range edge.BGP.Neighbors {
			nb.ImportMap = "NOT-POD1"
		}
	}
	return n
}

// TestAdoptionNeedsOnePreferenceOnBothSides: the local checks adoption runs
// do not re-validate Theorem 4.4's case splitting, so a class adopts only if
// every router holds one local preference for it on both Builders. On
// preferBottomOneSession, taking agg-0-0–edge-0-0 down and back up moves pod
// 1's classes between two preferences (the old side, then the new) and one;
// at each flap every class with prefs above 1 on either side (PrefsFunc,
// every router) must be invalidated, and every other class adopted, its
// abstraction equal to CompressFresh's and holding to the paper's
// conditions — except in pod 0, where the flapped link's lost or gained
// token has no witness.
func TestAdoptionNeedsOnePreferenceOnBothSides(t *testing.T) {
	ctx := context.Background()
	up := preferBottomOneSession()
	down := up.Clone()
	down.Links[down.FindLink("agg-0-0", "edge-0-0")].Down = true
	multi := func(b *Builder, cls ec.Class) bool {
		prefs := b.PrefsFunc(cls)
		return slices.ContainsFunc(b.G.Nodes(), func(u topo.NodeID) bool { return prefs(u) > 1 })
	}
	old, oldComp := newBuilder(t, up)
	compressAll(t, old, oldComp)
	for _, step := range []struct {
		name string
		net  *config.Network
	}{{"down", down}, {"back up", up}} {
		b, comp := newBuilder(t, step.net)
		st, err := b.AdoptFrom(ctx, comp, old, AdoptDelta{})
		if err != nil {
			t.Fatal(err)
		}
		gated := 0
		for _, cls := range b.Classes() {
			refused := slices.Contains(st.InvalidatedPrefixes, cls.Prefix.String())
			if multi(old, cls) || multi(b, cls) {
				gated++
				if !refused {
					t.Errorf("%s: class %v holds several preferences, yet was not invalidated", step.name, cls.Prefix)
				}
				continue
			}
			abs, ok := b.CachedAbstraction(cls)
			if refused && strings.HasPrefix(cls.Origins[0], "edge-0-") {
				continue // the flapped link's own pod: the witnesses refuse it
			}
			if refused || !ok {
				t.Errorf("%s: class %v holds one preference on both sides, yet was not adopted", step.name, cls.Prefix)
				continue
			}
			fresh, err := b.CompressFresh(ctx, comp, cls)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.AbstractConfig(cls, abs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := b.AbstractConfig(cls, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(abs.F, fresh.F) || config.PrintString(got) != config.PrintString(want) {
				t.Errorf("%s: class %v adopted as\n%s\nCompressFresh gives\n%s", step.name, cls.Prefix, config.PrintString(got), config.PrintString(want))
			}
			checkConditions(t, b, comp, cls, abs)
		}
		if gated == 0 || st.Adopted == 0 {
			t.Fatalf("%s: %d classes gated, %d adopted: the flap must give both", step.name, gated, st.Adopted)
		}
		t.Logf("%s: %d classes gated, %d adopted, %d invalidated", step.name, gated, st.Adopted, st.Invalidated)
		compressAll(t, b, comp)
		old = b
	}
}

// editRouter returns a fork of net in which the named router is a clone with
// a namespace of its own, edited by edit, as an apply edits a router.
func editRouter(net *config.Network, name string, edit func(r *config.Router)) *config.Network {
	succ := net.Fork()
	r := succ.Routers[name].Clone()
	r.CloneEnv()
	edit(r)
	succ.Routers[name] = r
	return succ
}

// TestTouchedRouterEdgesReadTheLabel: the edges of a router the delta
// edited are judged by the label transport compares, read on the
// predecessor and on the successor. Each edit is built by Successor and
// adopted as an apply adopts it; every adopted class must hold to the
// paper's conditions on the successor, every class's abstract size must
// equal a cold Builder's, and the adopted and invalidated counts are pinned.
// The matched-tag probe's edit makes z's map match x1's tag, which relabels
// x1's edge toward y: the class that merged x1 with x2 must not adopt. On
// Fattree(4) a denied export and a widened prefix list change one class's
// live edges, and so do an ACL and a static route toward agg-0-0 that only
// that class's prefix meets (no delta edits either, but the label holds the
// ACL verdict and the static bit); a tag no route map matches changes no
// label, so every class adopts.
func TestTouchedRouterEdgesReadTheLabel(t *testing.T) {
	src, err := os.ReadFile("../../testdata/regress/matched-tag.cfg")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := config.ParseString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	fattree := netgen.Fattree(4, netgen.PolicyShortestPath)
	pod1 := netip.MustParsePrefix("10.0.2.0/24") // edge-1-0's prefix
	own := []policy.Match{{Kind: policy.MatchPrefix, Arg: "OWN"}}
	for _, tc := range []struct {
		name, router         string
		net                  *config.Network
		edit                 func(r *config.Router)
		adopted, invalidated int
	}{
		{"matched tag", "z", probe, func(r *config.Router) {
			r.Env.RouteMaps["DROP"] = &policy.RouteMap{Name: "DROP", Clauses: []policy.Clause{
				{Seq: 10, Action: policy.Deny, Matches: []policy.Match{{Kind: policy.MatchCommunity, Arg: "TAG"}}},
			}}
		}, 0, 1},
		{"export denied", "edge-1-0", fattree, func(r *config.Router) {
			r.Env.RouteMaps["EXPORT-OWN"] = &policy.RouteMap{Name: "EXPORT-OWN", Clauses: []policy.Clause{{Seq: 10, Action: policy.Deny}}}
		}, 7, 1},
		{"prefix list widened", "edge-0-0", fattree, func(r *config.Router) {
			r.Env.PrefixLists["OWN"] = &policy.PrefixList{Name: "OWN", Entries: []policy.PrefixEntry{
				{Action: policy.Permit, Prefix: netip.MustParsePrefix("10.0.0.0/24")},
				{Action: policy.Permit, Prefix: pod1},
			}}
		}, 7, 1},
		{"ACL", "edge-0-0", fattree, func(r *config.Router) {
			r.Env.ACLs["NOT-POD1"] = &policy.ACL{Name: "NOT-POD1", Entries: []policy.PrefixEntry{
				{Action: policy.Deny, Prefix: pod1},
				{Action: policy.Permit, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32},
			}}
			r.IfaceACL["agg-0-0"] = "NOT-POD1"
		}, 7, 1},
		{"static route", "edge-0-0", fattree, func(r *config.Router) {
			r.Statics = append(r.Statics, config.StaticRoute{Prefix: pod1, NextHop: "agg-0-0"})
		}, 7, 1},
		{"unmatched tag", "edge-0-0", fattree, func(r *config.Router) {
			r.Env.RouteMaps["EXPORT-OWN"] = &policy.RouteMap{Name: "EXPORT-OWN", Clauses: []policy.Clause{
				{Seq: 10, Action: policy.Permit, Matches: own, Sets: []policy.Set{{Kind: policy.AddCommunity, Comm: 65000<<16 | 9}}},
			}}
		}, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, oldComp := newBuilder(t, tc.net)
			compressAll(t, old, oldComp)
			succ := editRouter(tc.net, tc.router, tc.edit)
			b, err := old.Successor(succ)
			if err != nil {
				t.Fatal(err)
			}
			comp := b.NewCompiler(true)
			defer comp.Close()
			st, err := b.AdoptFrom(context.Background(), comp, old, AdoptDelta{TouchedRouters: []string{tc.router}})
			if err != nil {
				t.Fatal(err)
			}
			for _, cls := range b.Classes() {
				if e := heldEntry(b, cls); e != nil && e.out.prov() == ProvAdopted {
					checkConditions(t, b, comp, cls, e.abs)
				}
			}
			cold, coldComp := newBuilder(t, succ)
			if got, want := abstractSizes(t, b, comp), abstractSizes(t, cold, coldComp); !slices.Equal(got, want) {
				t.Fatalf("abstract nodes/edges per class %v, a cold Builder %v (adopted %d, invalidated %v)",
					got, want, st.Adopted, st.InvalidatedPrefixes)
			}
			if st.Adopted != tc.adopted || st.Invalidated != tc.invalidated {
				t.Fatalf("adopted %d and invalidated %d (%v), want %d and %d", st.Adopted, st.Invalidated, st.InvalidatedPrefixes, tc.adopted, tc.invalidated)
			}
		})
	}
}
