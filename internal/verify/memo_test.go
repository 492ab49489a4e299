package verify

import (
	"context"
	"testing"
)

// TestPerPairReanalysesEverySource: per-pair certification analyses a class
// once more per source after its memo lookup, each time with the
// abstraction from the store, so on Fattree(4), where no two classes share
// a fingerprint, the store serves exactly one hit per (source, class) pair.
func TestPerPairReanalysesEverySource(t *testing.T) {
	b := fattree4(t)
	res, err := AllPairsBonsai(context.Background(), b, Options{Workers: 2, PerPairCertification: true})
	if err != nil {
		t.Fatal(err)
	}
	if served := b.AbstractionCacheStats().Served; served != res.Pairs || res.Pairs == 0 {
		t.Fatalf("%d store hits for %d pairs, want one per pair", served, res.Pairs)
	}
}
