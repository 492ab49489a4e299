package bonsai_test

import (
	"context"
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
