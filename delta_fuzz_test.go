package bonsai

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"bonsai/internal/netgen"
)

// FuzzDeltaJSON: whatever bytes arrive as a delta, decoding and applying them
// never panics, and a delta the engine accepts leaves a configuration that a
// cold Open accepts and answers the same way: the same classes, and the same
// reach from one fixed source to each. The seeds (testdata/fuzz) are one
// small hand-written delta per Delta field.
func FuzzDeltaJSON(f *testing.F) {
	base := netgen.Fattree(4, netgen.PolicyPreferBottom)
	const src = "edge-0-0"
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Delta
		if json.Unmarshal(data, &d) != nil {
			return
		}
		ctx := context.Background()
		eng, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.Apply(ctx, d); err != nil {
			return
		}
		cold, err := Open(eng.Network())
		if err != nil {
			t.Fatalf("a cold open refuses the configuration an accepted delta left: %v", err)
		}
		defer cold.Close()
		classes := cold.Classes()
		if got := eng.Classes(); !slices.Equal(got, classes) {
			t.Fatalf("classes after the delta %v, of a cold open %v", got, classes)
		}
		for _, dest := range classes {
			want, err := cold.Reach(ctx, src, dest)
			if err != nil {
				t.Fatalf("cold reach %s -> %s: %v", src, dest, err)
			}
			if got, err := eng.Reach(ctx, src, dest); err != nil || got.ReachAnswer != want.ReachAnswer {
				t.Fatalf("reach %s -> %s after the delta: %+v (%v), a cold open says %v", src, dest, got, err, want.Reachable)
			}
		}
	})
}
