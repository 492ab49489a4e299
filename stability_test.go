package bonsai

import (
	"context"
	"os"
	"regexp"
	"testing"
)

// openRegress opens one of the stable-paths gadgets in testdata/regress.
func openRegress(t *testing.T, name string) *Engine {
	t.Helper()
	net, err := ParseFile("testdata/regress/" + name + ".cfg")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestDisagreeCountsBothSolutions: DISAGREE has two stable solutions, and
// a's packets die at its ACL toward b in the one where it routes through b.
// So a reaches d in one solution, not in every one; b reaches it in both.
// Compressed and concrete answers agree, and Verify counts b's pair only.
// An answer taken from one solve would say true or false depending on which
// solution that solve met. The gadget runs a second time with a and b
// renamed to each other, which moves the ACL to the other router of the
// pair, so that in one of the runs the router with the ACL delivers in the
// last solution counted and not in the first. The third input,
// disagree-sym.cfg, puts the ACL on both sides: a and b share one
// case-split group, some copy of which delivers in each solution, yet
// neither router reaches d in every solution.
func TestDisagreeCountsBothSolutions(t *testing.T) {
	src, err := os.ReadFile("testdata/regress/disagree.cfg")
	if err != nil {
		t.Fatal(err)
	}
	sym, err := os.ReadFile("testdata/regress/disagree-sym.cfg")
	if err != nil {
		t.Fatal(err)
	}
	swapped := regexp.MustCompile(`\b[ab]\b`).ReplaceAllStringFunc(string(src), func(r string) string {
		return map[string]string{"a": "b", "b": "a"}[r]
	})
	// The router with the ACL delivers in one solution and black-holes in
	// the other; one without goes to d direct in one and through the other
	// router in the other.
	blocked := ReachAnswer{Reachable: false, ReachableSome: true, Stable: "multiple", MinHops: 1, MaxHops: 1, BlackHole: true}
	unblocked := ReachAnswer{Reachable: true, ReachableSome: true, Stable: "multiple", MinHops: 1, MaxHops: 2}
	for _, tc := range []struct {
		cfg       string
		want      map[string]ReachAnswer
		reachable int64 // pairs Verify counts reachable, of 2
	}{
		{string(src), map[string]ReachAnswer{"a": blocked, "b": unblocked}, 1},
		{swapped, map[string]ReachAnswer{"b": blocked, "a": unblocked}, 1},
		{string(sym), map[string]ReachAnswer{"a": blocked, "b": blocked}, 0},
	} {
		net, err := ParseString(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(net)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		checkDisagree(t, e, tc.want, tc.reachable)
	}
}

// checkDisagree checks e's answers on a DISAGREE gadget against want, per
// source router, and Verify's count of reachable pairs.
func checkDisagree(t *testing.T, e *Engine, want map[string]ReachAnswer, reachable int64) {
	t.Helper()
	ctx := context.Background()
	for src, want := range want {
		for name, reach := range map[string]func(context.Context, string, string) (*ReachResult, error){
			"Reach": e.Reach, "ReachConcrete": e.ReachConcrete,
		} {
			got, err := reach(ctx, src, "10.0.0.0/24")
			if err != nil {
				t.Fatalf("%s(%s): %v", name, src, err)
			}
			if got.ReachAnswer != want {
				t.Errorf("%s %s(%s) = %+v, want %+v", e.Network().Name, name, src, got.ReachAnswer, want)
			}
		}
	}
	for _, concrete := range []bool{false, true} {
		rep, err := e.Verify(ctx, VerifyRequest{Concrete: concrete})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs != 2 || rep.ReachablePairs != reachable || rep.Stable != "multiple" {
			t.Errorf("%s Verify (concrete %v): %d of %d pairs reachable, stable %q; want %d of 2, multiple",
				e.Network().Name, concrete, rep.ReachablePairs, rep.Pairs, rep.Stable, reachable)
		}
	}
}

// TestBadGadgetAnswersNone: BAD GADGET has no stable solution. Every query
// on its class answers so, with nothing reachable, rather than failing with
// srp.ErrDiverged (which would fail Verify for the whole network).
func TestBadGadgetAnswersNone(t *testing.T) {
	e := openRegress(t, "badgadget")
	ctx := context.Background()
	for _, src := range []string{"a", "b", "c"} {
		for name, reach := range map[string]func(context.Context, string, string) (*ReachResult, error){
			"Reach": e.Reach, "ReachConcrete": e.ReachConcrete,
		} {
			got, err := reach(ctx, src, "10.0.0.0/24")
			if err != nil {
				t.Fatalf("%s(%s): %v", name, src, err)
			}
			if want := (ReachAnswer{Stable: "none"}); got.ReachAnswer != want {
				t.Errorf("%s(%s) = %+v, want %+v", name, src, got.ReachAnswer, want)
			}
		}
	}
	routes, err := e.Routes(ctx, "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if routes.Stable != "none" || len(routes.Routes) != 0 {
		t.Errorf("Routes: stable %q with %d routes, want none with none", routes.Stable, len(routes.Routes))
	}
	for _, concrete := range []bool{false, true} {
		rep, err := e.Verify(ctx, VerifyRequest{Concrete: concrete})
		if err != nil {
			t.Fatalf("Verify (concrete %v): %v", concrete, err)
		}
		if rep.ReachablePairs != 0 || rep.Stable != "none" {
			t.Errorf("Verify (concrete %v): %d pairs reachable, stable %q; want 0, none", concrete, rep.ReachablePairs, rep.Stable)
		}
	}
}
