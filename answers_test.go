package bonsai

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// queryFingerprint renders every (source, class) reachability answer of the
// engine, each cross-checked against concrete simulation: the observable
// behaviour an update or a fault must preserve.
func queryFingerprint(t *testing.T, eng *Engine) string {
	t.Helper()
	ctx := context.Background()
	srcs := eng.Network().RouterNames()
	var out strings.Builder
	for _, dest := range eng.Classes() {
		for _, src := range srcs {
			res, err := eng.Reach(ctx, src, dest)
			if err != nil {
				t.Fatalf("reach %s -> %s: %v", src, dest, err)
			}
			con, err := eng.ReachConcrete(ctx, src, dest)
			if err != nil {
				t.Fatal(err)
			}
			if res.ReachAnswer != con.ReachAnswer {
				t.Fatalf("compressed answer diverges from concrete for %s -> %s", src, dest)
			}
			fmt.Fprintf(&out, "%s>%s=%v;", src, dest, res.Reachable)
		}
	}
	return out.String()
}

// checkConsistentSnapshot requires the engine's answers to equal a cold Open
// on the configuration the engine currently reports: every reachability
// answer, and Verify's answer.
func checkConsistentSnapshot(t *testing.T, eng *Engine) {
	t.Helper()
	fresh, err := Open(eng.Network())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := queryFingerprint(t, eng), queryFingerprint(t, fresh); got != want {
		t.Fatal("queries diverge from a cold Open on the engine's configuration")
	}
	ctx := context.Background()
	warm, err := eng.Verify(ctx, VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.Verify(ctx, VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.VerifyAnswer != cold.VerifyAnswer {
		t.Fatalf("verify answers diverge: warm %+v cold %+v", warm.VerifyAnswer, cold.VerifyAnswer)
	}
}
