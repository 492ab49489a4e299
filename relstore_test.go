package bonsai_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bonsai"
	"bonsai/internal/netgen"
)

// TestRelationStoreWarmRestart drives the full persistence cycle through the
// public API the way bonsaid does: compress everything, save, Close, reopen,
// load, and require that the warm engine answers Verify/Reach/Roles with
// field-identical results while running zero fresh refinements.
func TestRelationStoreWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "relstore.bin")
	ctx := context.Background()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)

	cold, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := cold.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.Cache.Fresh == 0 {
		t.Fatalf("cold engine computed no abstractions")
	}
	coldVerify, err := cold.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	coldRoles, err := cold.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	coldReach, err := cold.Reach(ctx, "core-0", cold.Classes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveRelationStore(path); err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.LoadRelationStore(path); err != nil {
		t.Fatal(err)
	}
	warmRep, err := warm.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if warmRep.Cache.Fresh != 0 {
		t.Fatalf("warm engine ran %d fresh refinements, want 0", warmRep.Cache.Fresh)
	}
	if warmRep.ClassesCompressed != coldRep.ClassesCompressed ||
		warmRep.SumAbstractNodes != coldRep.SumAbstractNodes ||
		warmRep.SumAbstractLinks != coldRep.SumAbstractLinks {
		t.Fatalf("warm compression differs: %+v vs %+v", warmRep, coldRep)
	}
	warmVerify, err := warm.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// DistinctAbstractions counts refinements actually run, which is exactly
	// what the warm path avoids; every result field must match.
	if warmVerify.Pairs != coldVerify.Pairs ||
		warmVerify.ReachablePairs != coldVerify.ReachablePairs ||
		warmVerify.AbstractNodeSum != coldVerify.AbstractNodeSum {
		t.Fatalf("warm verify differs:\ncold %+v\nwarm %+v", coldVerify, warmVerify)
	}
	warmRoles, err := warm.Roles(ctx, bonsai.RolesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRoles, warmRoles) {
		t.Fatalf("warm roles differ: %+v vs %+v", warmRoles, coldRoles)
	}
	warmReach, err := warm.Reach(ctx, "core-0", warm.Classes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if warmReach.Reachable != coldReach.Reachable {
		t.Fatalf("warm reach differs: %v vs %v", warmReach.Reachable, coldReach.Reachable)
	}
}

// TestRelationStoreExplicitSaveLoad exercises the explicit API: save without
// Close, load into a second engine, and reject damage cleanly.
func TestRelationStoreExplicitSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "relstore.bin")
	ctx := context.Background()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)

	eng, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveRelationStore(path); err != nil {
		t.Fatal(err)
	}

	warm, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	n, err := warm.LoadRelationStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("load installed no abstractions")
	}
	rep, err := warm.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Fresh != 0 {
		t.Fatalf("loaded engine ran %d fresh refinements, want 0", rep.Cache.Fresh)
	}

	// A bit-flipped file must be rejected with no partial state.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cold, err := bonsai.Open(net)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if n, err := cold.LoadRelationStore(bad); err == nil {
		t.Fatalf("corrupt store loaded (%d entries)", n)
	}
	if st := cold.Stats(); st.LiveBytes != 0 {
		t.Fatalf("rejected load left %d live bytes", st.LiveBytes)
	}
}

// TestRelationStoreSurvivesAdoption: a store saved after a link-down delta
// loads. Adoption reuses the predecessor's *core.Abstraction for a class
// whose representative edges survive, so its Live vector is aligned with the
// predecessor's graph; the file used to carry that vector beside the entry's
// own and a fresh builder rejected the whole store on its length — every
// tenant whose last delta removed a link cold-started. The warm engine must
// serve the adopted classes with zero refinements and answer exactly as a
// cold Open of the same network does.
func TestRelationStoreSurvivesAdoption(t *testing.T) {
	for _, tc := range []struct {
		k       int
		down    bonsai.LinkRef
		adopted int
		stride  int // sources sampled per class: 180 x 72 solves add nothing a stride misses
	}{
		{4, bonsai.LinkRef{A: "agg-1-0", B: "core-0"}, 6, 1},
		{12, bonsai.LinkRef{A: "agg-5-0", B: "core-0"}, 66, 7},
	} {
		t.Run(fmt.Sprintf("fattree-%d", tc.k), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "relstore.bin")
			ctx := context.Background()
			eng, err := bonsai.Open(netgen.Fattree(tc.k, netgen.PolicyShortestPath))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Apply(ctx, bonsai.Delta{LinkDown: []bonsai.LinkRef{tc.down}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Adopted != tc.adopted || rep.Unchanged == 0 {
				t.Fatalf("apply report %+v, want %d adopted and some unchanged", rep, tc.adopted)
			}
			if err := eng.SaveRelationStore(path); err != nil {
				t.Fatal(err)
			}

			warm, err := bonsai.Open(eng.Network())
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			n, err := warm.LoadRelationStore(path)
			if n == 0 || err != nil {
				t.Fatalf("load after adoption: installed=%d err=%v", n, err)
			}
			invalidated := make(map[string]bool)
			for _, p := range rep.InvalidatedPrefixes {
				invalidated[p] = true
			}
			for _, p := range warm.Classes() {
				if invalidated[p] {
					continue
				}
				if _, err := warm.Compress(ctx, bonsai.ClassSelector{Prefix: p}); err != nil {
					t.Fatal(err)
				}
			}
			if st := warm.Stats(); st.Fresh != 0 {
				t.Fatalf("warm engine refined %d adopted classes, want 0 (%+v)", st.Fresh, st)
			}

			cold, err := bonsai.Open(eng.Network())
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			wv, err := warm.Verify(ctx, bonsai.VerifyRequest{})
			if err != nil {
				t.Fatal(err)
			}
			cv, err := cold.Verify(ctx, bonsai.VerifyRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if wv.Classes != cv.Classes || wv.Pairs != cv.Pairs || wv.ReachablePairs != cv.ReachablePairs ||
				wv.AbstractNodeSum != cv.AbstractNodeSum {
				t.Fatalf("verify differs:\nwarm %+v\ncold %+v", wv, cv)
			}
			srcs := eng.Network().RouterNames()
			for _, dest := range cold.Classes() {
				wr, err := warm.Routes(ctx, dest)
				if err != nil {
					t.Fatal(err)
				}
				cr, err := cold.Routes(ctx, dest)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wr, cr) {
					t.Fatalf("routes to %s differ:\nwarm %+v\ncold %+v", dest, wr, cr)
				}
				for i := 0; i < len(srcs); i += tc.stride {
					wq, err := warm.Reach(ctx, srcs[i], dest)
					if err != nil {
						t.Fatal(err)
					}
					cq, err := cold.Reach(ctx, srcs[i], dest)
					if err != nil {
						t.Fatal(err)
					}
					if wq.Reachable != cq.Reachable || wq.Compressed != cq.Compressed {
						t.Fatalf("reach %s -> %s: warm %+v cold %+v", srcs[i], dest, wq, cq)
					}
				}
			}
		})
	}
}
