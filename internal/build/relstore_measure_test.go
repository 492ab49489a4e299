package build

import (
	"context"
	"os"
	"testing"
	"time"

	"bonsai/internal/netgen"
)

// TestMeasureWarmRestart2000 is the measurement harness behind the
// warm-restart table in EXPERIMENTS.md (fattree-2000, the paper's scale).
// It is too slow for every CI run; set BONSAI_MEASURE=1 to run it:
//
//	BONSAI_MEASURE=1 go test ./internal/build -run MeasureWarmRestart2000 -v
func TestMeasureWarmRestart2000(t *testing.T) {
	if os.Getenv("BONSAI_MEASURE") == "" {
		t.Skip("measurement harness; set BONSAI_MEASURE=1")
	}
	ctx := context.Background()
	gen := func() *Builder {
		b, err := New(netgen.Fattree(40, netgen.PolicyShortestPath))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t0 := time.Now()
	b := gen()
	buildDur := time.Since(t0)
	comp := b.NewCompiler(true)
	t1 := time.Now()
	for _, cls := range b.Classes() {
		if _, err := b.Compress(ctx, comp, cls); err != nil {
			t.Fatal(err)
		}
	}
	coldCompress := time.Since(t1)
	st := b.AbstractionCacheStats()

	t2 := time.Now()
	data := b.encodeRelationStore()
	saveDur := time.Since(t2)

	b2 := gen()
	comp2 := b2.NewCompiler(true)
	t3 := time.Now()
	n, err := b2.loadRelationStore(data)
	if err != nil {
		t.Fatal(err)
	}
	loadDur := time.Since(t3)
	t4 := time.Now()
	for _, cls := range b2.Classes() {
		if _, err := b2.Compress(ctx, comp2, cls); err != nil {
			t.Fatal(err)
		}
	}
	warmCompress := time.Since(t4)
	if st2 := b2.AbstractionCacheStats(); st2.Fresh != 0 {
		t.Fatalf("warm path refined %d classes", st2.Fresh)
	}
	t.Logf("fattree-2000: classes=%d build=%v coldCompress=%v (fresh=%d transported=%d)",
		len(b.Classes()), buildDur, coldCompress, st.Fresh, st.Transported)
	t.Logf("store: bytes=%d save=%v load=%v installed=%d", len(data), saveDur, loadDur, n)
	t.Logf("warmCompress=%v speedup(compress)=%.1fx speedup(process)=%.1fx",
		warmCompress,
		float64(coldCompress)/float64(loadDur+warmCompress),
		float64(buildDur+coldCompress)/float64(buildDur+loadDur+warmCompress))
}
