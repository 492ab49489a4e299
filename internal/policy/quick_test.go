package policy

import (
	"math/rand"
	"net/netip"
	"testing"

	"bonsai/internal/protocols"
)

// randomRouteMap builds a random route map over a fixed universe of
// communities, prefix lists and LP values.
func randomRouteMap(rng *rand.Rand, env *Env, comms []protocols.Community) *RouteMap {
	rm := &RouteMap{Name: "R"}
	numClauses := 1 + rng.Intn(4)
	for c := 0; c < numClauses; c++ {
		cl := Clause{Seq: (c + 1) * 10}
		if rng.Intn(5) == 0 {
			cl.Action = Deny
		}
		// Matches: up to two, community and/or prefix.
		if rng.Intn(2) == 0 {
			list := []string{"cl0", "cl1"}[rng.Intn(2)]
			cl.Matches = append(cl.Matches, Match{Kind: MatchCommunity, Arg: list})
		}
		if rng.Intn(3) == 0 {
			list := []string{"pl0", "pl1"}[rng.Intn(2)]
			cl.Matches = append(cl.Matches, Match{Kind: MatchPrefix, Arg: list})
		}
		if cl.Action == Permit {
			numSets := rng.Intn(3)
			for s := 0; s < numSets; s++ {
				switch rng.Intn(3) {
				case 0:
					cl.Sets = append(cl.Sets, Set{Kind: SetLocalPref, Value: uint32(100 + 50*rng.Intn(5))})
				case 1:
					cl.Sets = append(cl.Sets, Set{Kind: AddCommunity, Comm: comms[rng.Intn(len(comms))]})
				case 2:
					cl.Sets = append(cl.Sets, Set{Kind: DeleteCommunity, Comm: comms[rng.Intn(len(comms))]})
				}
			}
		}
		rm.Clauses = append(rm.Clauses, cl)
	}
	return rm
}

// TestQuickCompileAgreesWithEval is the compile-fuzzer: for hundreds of
// random route maps, the BDD relation and the concrete evaluator must agree
// on every input — drops, communities and local preference alike.
func TestQuickCompileAgreesWithEval(t *testing.T) {
	comms := []protocols.Community{
		protocols.MakeCommunity(1, 1),
		protocols.MakeCommunity(1, 2),
		protocols.MakeCommunity(1, 3),
	}
	env := NewEnv()
	env.CommunityLists["cl0"] = &CommunityList{Communities: comms[:1]}
	env.CommunityLists["cl1"] = &CommunityList{Communities: comms[1:]}
	env.PrefixLists["pl0"] = &PrefixList{Entries: []PrefixEntry{
		{Action: Permit, Prefix: netip.MustParsePrefix("10.0.0.0/8"), Ge: 8, Le: 32},
	}}
	env.PrefixLists["pl1"] = &PrefixList{Entries: []PrefixEntry{
		{Action: Permit, Prefix: netip.MustParsePrefix("192.168.0.0/16"), Ge: 16, Le: 24},
	}}
	dests := []netip.Prefix{
		netip.MustParsePrefix("10.1.0.0/24"),
		netip.MustParsePrefix("192.168.3.0/24"),
		netip.MustParsePrefix("172.16.0.0/16"),
	}

	rng := rand.New(rand.NewSource(99))
	comp := NewSpace(comms).NewCompiler()
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		env.RouteMaps["R"] = randomRouteMap(rng, env, comms)
		for _, dst := range dests {
			rel := comp.CompileEdge(nil, "", env, "R", dst)
			for input := 0; input < 8; input++ {
				var cs protocols.CommSet
				for bit, cm := range comms {
					if input&(1<<bit) != 0 {
						cs = cs.With(cm)
					}
				}
				lp := uint32(100 + 10*rng.Intn(30))
				want := env.EvalRouteMap("R", dst, &protocols.BGPAttr{LP: lp, Comms: cs})
				gotC, gotLP, ok := comp.Apply(rel, cs, lp)
				if (want != nil) != ok {
					t.Fatalf("trial %d dst %v input %v: drop mismatch (eval=%v bdd=%v)",
						trial, dst, cs, want != nil, ok)
				}
				if want == nil {
					continue
				}
				if gotLP != want.LP || !gotC.Equal(want.Comms) {
					t.Fatalf("trial %d dst %v input %v lp=%d: bdd=(%v,%d) eval=(%v,%d)",
						trial, dst, cs, lp, gotC, gotLP, want.Comms, want.LP)
				}
			}
		}
	}
}

// TestQuickCanonicalMeansEquivalent: whenever two random route maps compile
// to the same node, exhaustive evaluation must agree everywhere (no false
// merges); and when evaluation agrees everywhere, the nodes must be equal
// (no false splits).
func TestQuickCanonicalMeansEquivalent(t *testing.T) {
	comms := []protocols.Community{
		protocols.MakeCommunity(2, 1),
		protocols.MakeCommunity(2, 2),
	}
	env := NewEnv()
	env.CommunityLists["cl0"] = &CommunityList{Communities: comms[:1]}
	env.CommunityLists["cl1"] = &CommunityList{Communities: comms[1:]}
	env.PrefixLists["pl0"] = &PrefixList{Entries: []PrefixEntry{
		{Action: Permit, Prefix: netip.MustParsePrefix("10.0.0.0/8"), Ge: 8, Le: 32},
	}}
	env.PrefixLists["pl1"] = &PrefixList{} // matches nothing
	dst := netip.MustParsePrefix("10.2.0.0/24")

	// Exhaustive behavioral signature over all 4 community inputs and a
	// couple of LP values.
	signature := func(name string) string {
		sig := ""
		for input := 0; input < 4; input++ {
			var cs protocols.CommSet
			for bit, cm := range comms {
				if input&(1<<bit) != 0 {
					cs = cs.With(cm)
				}
			}
			for _, lp := range []uint32{100, 250} {
				out := env.EvalRouteMap(name, dst, &protocols.BGPAttr{LP: lp, Comms: cs})
				if out == nil {
					sig += "D;"
				} else {
					sig += out.Comms.String() + "/" + itoa(out.LP) + ";"
				}
			}
		}
		return sig
	}

	rng := rand.New(rand.NewSource(123))
	comp := NewSpace(comms).NewCompiler()
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		env.RouteMaps["A"] = randomRouteMap(rng, env, comms)
		env.RouteMaps["B"] = randomRouteMap(rng, env, comms)
		relA := comp.CompileEdge(nil, "", env, "A", dst)
		relB := comp.CompileEdge(nil, "", env, "B", dst)
		semEq := signature("A") == signature("B")
		if (relA == relB) != semEq {
			t.Fatalf("trial %d: canonical=%v semantic=%v\nA=%+v\nB=%+v",
				trial, relA == relB, semEq, env.RouteMaps["A"], env.RouteMaps["B"])
		}
	}
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
