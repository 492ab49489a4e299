// Command engine is the worked example of the public bonsai library API
// (the README's "Library usage" section runs this program): open a
// long-lived Engine over a network, compress and verify it, answer
// reachability queries from the warm cache, then evolve the network in
// place with Engine.Apply — a link failure and a new customer prefix —
// while observing how much cached work each update preserves.
//
//	go run ./examples/engine
package main

import (
	"context"
	"fmt"
	"log"

	"bonsai"
	"bonsai/internal/netgen"
)

func main() {
	ctx := context.Background()

	// A 20-router fat tree (k=4): every edge router originates one /24 and
	// exports only its own prefixes. Any *bonsai.Network works here — parse
	// one with bonsai.ParseFile, or build one programmatically.
	net := netgen.Fattree(4, netgen.PolicyShortestPath)

	eng, err := bonsai.Open(net,
		bonsai.WithWorkers(2),
		// Bound the abstraction store: past the budget, cold cached
		// abstractions are evicted (and recompress on their next query).
		bonsai.WithMemoryBudget(64<<20),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close() // frees the pooled BDD tables

	// Stream the first compression: the per-class results arrive as the
	// worker pool completes them — the batch Compress below is this
	// same pipeline plus a drain.
	s, err := eng.CompressStream(ctx, bonsai.ClassSelector{})
	if err != nil {
		log.Fatal(err)
	}
	for r := range s.Results() {
		fmt.Printf("  %-14s %d abstract nodes (%s)\n", r.Prefix, r.AbstractNodes, r.Source)
	}
	if err := s.Err(); err != nil {
		log.Fatal(err)
	}

	// The batch form aggregates the same stream into one report. The
	// engine deduplicates abstractions across classes, so symmetric
	// classes share one refinement run.
	rep, err := eng.Compress(ctx, bonsai.ClassSelector{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d classes: %.0f nodes -> %.1f abstract (%.1fx), %d distinct refinements\n",
		rep.ClassesCompressed, float64(rep.Network.Routers), rep.AvgAbstractNodes(),
		rep.NodeRatio, rep.Cache.Fresh)

	// Verify all-pairs reachability on the compressed network.
	vrep, err := eng.Verify(ctx, bonsai.VerifyRequest{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified %d pairs, %d reachable, in %v\n",
		vrep.Pairs, vrep.ReachablePairs, vrep.Total.Round(1000))

	// Single queries are answered from the warm abstraction cache.
	res, err := eng.Reach(ctx, "edge-1-1", "10.0.0.0/24")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edge-1-1 -> 10.0.0.0/24: reachable=%v (%v)\n", res.Reachable, res.Duration.Round(1000))

	// A link fails. Apply revalidates every cached abstraction against the
	// new topology and invalidates only the classes the failure can affect.
	arep, err := eng.Apply(ctx, bonsai.Delta{
		LinkDown: []bonsai.LinkRef{{A: "agg-3-0", B: "core-0"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("link down: %d classes adopted, %d invalidated %v (in %v)\n",
		arep.Adopted, arep.Invalidated, arep.InvalidatedPrefixes, arep.Duration.Round(1000))

	// Queries keep working mid-evolution; invalidated classes recompress
	// lazily on first touch.
	if res, err = eng.Reach(ctx, "edge-1-1", "10.0.0.0/24"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failure: edge-1-1 -> 10.0.0.0/24 reachable=%v\n", res.Reachable)

	// A new customer prefix appears on edge-1-1: originate it and extend
	// the router's export filter so it is announced.
	own := &bonsai.PrefixList{Entries: []bonsai.PrefixEntry{
		{Action: bonsai.Permit, Prefix: mustPrefix("10.0.3.0/24")},
		{Action: bonsai.Permit, Prefix: mustPrefix("10.42.0.0/24")},
	}}
	arep, err = eng.Apply(ctx, bonsai.Delta{
		AddOriginated:  []bonsai.OriginEdit{{Router: "edge-1-1", Prefix: "10.42.0.0/24"}},
		SetPrefixLists: []bonsai.PrefixListEdit{{Router: "edge-1-1", Name: "OWN", List: own}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new prefix: %d adopted, %d new class(es)\n", arep.Adopted, arep.NewClasses)

	if res, err = eng.Reach(ctx, "edge-0-0", "10.42.0.0/24"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edge-0-0 -> 10.42.0.0/24: reachable=%v\n", res.Reachable)

	st := eng.Stats()
	fmt.Printf("cache: %d fresh, %d transported, %d adopted, %d served\n",
		st.Fresh, st.Transported, st.Adopted, st.Served)
}

func mustPrefix(s string) bonsai.Prefix {
	p, err := bonsai.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
