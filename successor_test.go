package bonsai

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"weak"

	"bonsai/internal/netgen"
)

// TestInvalidSuccessorsAreRejected: an apply validates only the routers its
// delta edited, so every way an edit can leave a network that does not
// validate is driven through Engine.Apply and ApplyStream. Apply must fail
// with ErrInvalidDelta, the stream must count the delta rejected and end
// without an error, and both must leave the served network and its answers
// as they were. A last case shares one policy namespace between two routers
// and edits it through one of them: the other keeps the namespace it had,
// and the answers are a cold Open's.
func TestInvalidSuccessorsAreRejected(t *testing.T) {
	ctx := context.Background()
	nope := &RouteMap{Clauses: []Clause{{Seq: 10, Action: Permit, Matches: []Match{{Kind: MatchPrefix, Arg: "NOPE"}}}}}
	nopeComm := &RouteMap{Clauses: []Clause{{Seq: 10, Action: Permit, Matches: []Match{{Kind: MatchCommunity, Arg: "NOPE"}}}}}
	for _, tc := range []struct {
		name string
		d    Delta
	}{
		{"route map deleted while a session names it", Delta{SetRouteMaps: []RouteMapEdit{{Router: "edge-0-0", Name: "EXPORT-OWN"}}}},
		{"route map matching an unknown prefix list", Delta{SetRouteMaps: []RouteMapEdit{{Router: "edge-0-0", Name: "EXPORT-OWN", Map: nope}}}},
		{"route map matching an unknown community list", Delta{SetRouteMaps: []RouteMapEdit{{Router: "agg-0-0", Name: "UNUSED", Map: nopeComm}}}},
		{"prefix list deleted while a route map matches it", Delta{SetPrefixLists: []PrefixListEdit{{Router: "edge-1-0", Name: "OWN"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			before := eng.Network()
			want := allReach(t, eng)
			if _, err := eng.Apply(ctx, tc.d); !errors.Is(err, ErrInvalidDelta) {
				t.Fatalf("Apply: err = %v, want ErrInvalidDelta", err)
			}
			ch := make(chan Delta, 1)
			ch <- tc.d
			close(ch)
			rep, err := eng.ApplyStream(ctx, ch)
			if err != nil || rep.Rejected != 1 {
				t.Fatalf("ApplyStream: err = %v, rejected %d; want the delta rejected and the stream ended cleanly", err, rep.Rejected)
			}
			if eng.Network() != before {
				t.Fatal("a rejected delta replaced the served network")
			}
			if got := allReach(t, eng); got != want {
				t.Fatalf("answers moved: %s, want %s", got, want)
			}
		})
	}

	t.Run("edit through one of two routers sharing a namespace", func(t *testing.T) {
		net := netgen.Fattree(4, netgen.PolicyShortestPath)
		shared := net.Routers["edge-0-0"].Env
		net.Routers["edge-0-1"].Env = shared // edge-0-1 now exports what edge-0-0 does
		eng, err := Open(net)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
			t.Fatal(err)
		}
		all := &RouteMap{Clauses: []Clause{{Seq: 10, Action: Permit}}}
		if _, err := eng.Apply(ctx, Delta{SetRouteMaps: []RouteMapEdit{{Router: "edge-0-0", Name: "EXPORT-OWN", Map: all}}}); err != nil {
			t.Fatal(err)
		}
		after := eng.Network()
		if after.Routers["edge-0-1"].Env != shared || shared.RouteMaps["EXPORT-OWN"].Clauses[0].Matches == nil {
			t.Fatal("the edit reached the router that shared the namespace")
		}
		if after.Routers["edge-0-0"].Env == shared {
			t.Fatal("the edited router kept the shared namespace")
		}
		cold, err := Open(after)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		if got, want := allReach(t, eng), allReach(t, cold); got != want {
			t.Fatalf("answers after the edit: %s, cold Open: %s", got, want)
		}
	})
}

// allReach renders every (router, class) reach answer of the engine.
func allReach(t *testing.T, eng *Engine) string {
	t.Helper()
	ctx := context.Background()
	st := eng.state.Load()
	out := ""
	for _, cls := range st.b.Classes() {
		for _, u := range st.b.G.Nodes() {
			r, err := eng.Reach(ctx, st.b.G.Name(u), cls.Prefix.String())
			if err != nil {
				t.Fatal(err)
			}
			if r.Reachable {
				out += "1"
			} else {
				out += "0"
			}
		}
		out += "|"
	}
	return out
}

// TestApplyChainDoesNotRetainItsPast: a successor Builder shares the node
// table, universes and spaces of its predecessor but holds no pointer to it,
// so after three applies the first snapshot's Builder is garbage.
func TestApplyChainDoesNotRetainItsPast(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Compress(ctx, ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	first := weak.Make(eng.state.Load().b)
	ref := []LinkRef{{A: "agg-0-0", B: "core-0"}}
	for _, d := range []Delta{{LinkDown: ref}, {LinkUp: ref}, {AddOriginated: []OriginEdit{{Router: "edge-0-0", Prefix: "10.250.0.0/24"}}}} {
		if _, err := eng.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("the first snapshot's Builder is still reachable after three applies")
	}
}

// TestOpenLinklessNetworks: a configuration without links — empty, as Parse
// returns it for an empty text, or one router — opens, takes an apply and
// answers.
func TestOpenLinklessNetworks(t *testing.T) {
	ctx := context.Background()
	for _, text := range []string{"", "router r\n  originate 10.0.0.0/24\n"} {
		net, err := ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Open(net)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		defer eng.Close()
		if text == "" {
			continue
		}
		if _, err := eng.Apply(ctx, Delta{AddOriginated: []OriginEdit{{Router: "r", Prefix: "10.0.1.0/24"}}}); err != nil {
			t.Fatal(err)
		}
		if res, err := eng.Reach(ctx, "r", "10.0.1.0/24"); err != nil || !res.Reachable {
			t.Fatalf("reach r -> 10.0.1.0/24 = %+v, %v", res, err)
		}
	}
}
