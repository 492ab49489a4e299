package build

import (
	"context"
	"testing"

	"bonsai/internal/netgen"
)

// Regression scale check: fattree(8) has 512 directed edges, enough that a
// byte-bounded length check on the packed live bitset falsely rejects it.
func TestRelationStoreRoundTripLarger(t *testing.T) {
	b, err := New(netgen.Fattree(8, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	comp := b.NewCompiler(true)
	defer comp.Close()
	ctx := context.Background()
	for _, cls := range b.Classes() {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	data := b.encodeRelationStore()
	b2, err := New(netgen.Fattree(8, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	comp2 := b2.NewCompiler(true)
	defer comp2.Close()
	n, err := b2.loadRelationStore(data)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing installed")
	}
	for _, cls := range b2.Classes() {
		if _, err := b2.Compress(ctx, comp2, cls); err != nil {
			t.Fatal(err)
		}
	}
	if st := b2.AbstractionCacheStats(); st.Fresh != 0 {
		t.Fatalf("warm builder ran %d fresh refinements", st.Fresh)
	}
}
