package policy

import (
	"math/rand"
	"testing"

	"bonsai/internal/protocols"
)

func figure10Env() (*Env, []protocols.Community) {
	c1 := protocols.MakeCommunity(65001, 1)
	c2 := protocols.MakeCommunity(65001, 2)
	c3 := protocols.MakeCommunity(65001, 3)
	env := NewEnv()
	env.CommunityLists["dept"] = &CommunityList{Name: "dept", Communities: []protocols.Community{c1, c2}}
	env.RouteMaps["M"] = &RouteMap{Name: "M", Clauses: []Clause{
		{Seq: 10, Action: Permit,
			Matches: []Match{{Kind: MatchCommunity, Arg: "dept"}},
			Sets: []Set{
				{Kind: AddCommunity, Comm: c3},
				{Kind: SetLocalPref, Value: 350},
			}},
		{Seq: 20, Action: Permit},
	}}
	return env, []protocols.Community{c1, c2, c3}
}

func TestCompileMatchesConcreteEval(t *testing.T) {
	env, comms := figure10Env()
	c := NewSpace(comms).NewCompiler()
	rel := c.CompileEdge(nil, "", env, "M", pfx("10.0.0.0/24"))

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var in protocols.CommSet
		for _, cm := range comms {
			if rng.Intn(2) == 0 {
				in = in.With(cm)
			}
		}
		lp := uint32(rng.Intn(1 << 10))
		attr := &protocols.BGPAttr{LP: lp, Comms: in}
		want := env.EvalRouteMap("M", pfx("10.0.0.0/24"), attr)
		gotComms, gotLP, ok := c.Apply(rel, in, lp)
		if (want != nil) != ok {
			t.Fatalf("drop mismatch for %v", in)
		}
		if want == nil {
			continue
		}
		if gotLP != want.LP || !gotComms.Equal(want.Comms) {
			t.Fatalf("in=%v lp=%d: symbolic (%v,%d) vs concrete (%v,%d)",
				in, lp, gotComms, gotLP, want.Comms, want.LP)
		}
	}
}

func TestCompileCanonicalEquivalence(t *testing.T) {
	// Two syntactically different but semantically equal route maps must
	// compile to the same node.
	c1 := protocols.MakeCommunity(1, 1)
	env := NewEnv()
	env.CommunityLists["l"] = &CommunityList{Communities: []protocols.Community{c1}}
	env.RouteMaps["A"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Matches: []Match{{Kind: MatchCommunity, Arg: "l"}},
			Sets: []Set{{Kind: SetLocalPref, Value: 200}}},
		{Action: Permit},
	}}
	// B writes the same function with a redundant extra clause.
	env.RouteMaps["B"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Matches: []Match{{Kind: MatchCommunity, Arg: "l"}},
			Sets: []Set{{Kind: SetLocalPref, Value: 200}}},
		{Action: Permit, Matches: []Match{{Kind: MatchCommunity, Arg: "l"}},
			Sets: []Set{{Kind: SetLocalPref, Value: 999}}}, // unreachable
		{Action: Permit},
	}}
	// C is genuinely different.
	env.RouteMaps["C"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Matches: []Match{{Kind: MatchCommunity, Arg: "l"}},
			Sets: []Set{{Kind: SetLocalPref, Value: 300}}},
		{Action: Permit},
	}}
	c := NewSpace([]protocols.Community{c1}).NewCompiler()
	p := pfx("10.0.0.0/24")
	a, b, cc := c.CompileEdge(nil, "", env, "A", p), c.CompileEdge(nil, "", env, "B", p), c.CompileEdge(nil, "", env, "C", p)
	if a != b {
		t.Fatal("equivalent policies compiled to different nodes")
	}
	if a == cc {
		t.Fatal("different policies compiled to the same node")
	}
}

func TestCompilePrefixSpecialisation(t *testing.T) {
	env := NewEnv()
	env.PrefixLists["only10"] = &PrefixList{Entries: []PrefixEntry{
		{Action: Permit, Prefix: pfx("10.0.0.0/8"), Ge: 8, Le: 32},
	}}
	env.RouteMaps["F"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Matches: []Match{{Kind: MatchPrefix, Arg: "only10"}}},
	}}
	c := NewSpace(nil).NewCompiler()
	relIn := c.CompileEdge(nil, "", env, "F", pfx("10.1.0.0/16"))
	relOut := c.CompileEdge(nil, "", env, "F", pfx("192.168.0.0/16"))
	if c.AlwaysDrops(relIn) {
		t.Fatal("permitted destination compiled to constant drop")
	}
	if !c.AlwaysDrops(relOut) {
		t.Fatal("filtered destination should compile to constant drop")
	}
	if relIn != c.CompileEdge(nil, "", nil, "", pfx("10.1.0.0/16")) {
		t.Fatal("pass-through policy should equal the identity relation")
	}
}

func TestCompileEdgeComposition(t *testing.T) {
	// Export adds a tag; import raises LP when the tag is present. The
	// composition must equal a single map that raises LP unconditionally
	// and adds the tag.
	tag := protocols.MakeCommunity(65001, 1)
	envV := NewEnv()
	envV.RouteMaps["exp"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Sets: []Set{{Kind: AddCommunity, Comm: tag}}},
	}}
	envU := NewEnv()
	envU.CommunityLists["t"] = &CommunityList{Communities: []protocols.Community{tag}}
	envU.RouteMaps["imp"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Matches: []Match{{Kind: MatchCommunity, Arg: "t"}},
			Sets: []Set{{Kind: SetLocalPref, Value: 200}}},
		{Action: Permit},
	}}
	envOne := NewEnv()
	envOne.RouteMaps["both"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Sets: []Set{
			{Kind: AddCommunity, Comm: tag},
			{Kind: SetLocalPref, Value: 200},
		}},
	}}
	c := NewSpace([]protocols.Community{tag}).NewCompiler()
	p := pfx("10.0.0.0/24")
	composed := c.CompileEdge(envV, "exp", envU, "imp", p)
	direct := c.CompileEdge(nil, "", envOne, "both", p)
	if composed != direct {
		t.Fatal("export∘import composition not canonical")
	}
}

func TestUnusedCommunityErasure(t *testing.T) {
	// Routers A and B differ only in a community they set that nobody ever
	// matches. With the tag in the universe they compile differently; with
	// the erasing universe (matched communities only) they compile equal.
	// This reproduces the §8 role-collapse mechanism (112 -> 26 roles).
	unused1 := protocols.MakeCommunity(65000, 1)
	unused2 := protocols.MakeCommunity(65000, 2)
	env := NewEnv()
	env.RouteMaps["A"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Sets: []Set{{Kind: AddCommunity, Comm: unused1}}},
	}}
	env.RouteMaps["B"] = &RouteMap{Clauses: []Clause{
		{Action: Permit, Sets: []Set{{Kind: AddCommunity, Comm: unused2}}},
	}}
	p := pfx("10.0.0.0/24")

	full := NewSpace([]protocols.Community{unused1, unused2}).NewCompiler()
	if full.CompileEdge(nil, "", env, "A", p) == full.CompileEdge(nil, "", env, "B", p) {
		t.Fatal("distinct tags should differ under the full universe")
	}
	erased := NewSpace(nil).NewCompiler() // neither tag is ever matched
	if erased.CompileEdge(nil, "", env, "A", p) != erased.CompileEdge(nil, "", env, "B", p) {
		t.Fatal("unused-tag differences should vanish under erasure")
	}
}

func TestSequentialDenyPropagates(t *testing.T) {
	// If export denies, import never resurrects the route.
	env := NewEnv()
	env.RouteMaps["deny"] = &RouteMap{Clauses: []Clause{{Action: Deny}}}
	env.RouteMaps["permit"] = &RouteMap{Clauses: []Clause{{Action: Permit}}}
	c := NewSpace(nil).NewCompiler()
	p := pfx("10.0.0.0/24")
	rel := c.CompileEdge(env, "deny", env, "permit", p)
	if !c.AlwaysDrops(rel) {
		t.Fatal("deny-then-permit should always drop")
	}
}
