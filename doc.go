// Package bonsai is the public interface to the control-plane compression
// engine of Beckett, Gupta, Mahajan and Walker, "Control Plane Compression"
// (SIGCOMM 2018): it compresses a network configuration into a smaller,
// behaviorally equivalent one — per destination equivalence class — and
// answers reachability and verification queries on the compressed form.
//
// The entry point is an Engine, a long-lived, concurrency-safe session over
// one network:
//
//	net, err := bonsai.ParseFile("net.txt")
//	eng, err := bonsai.Open(net, bonsai.WithWorkers(4))
//	rep, err := eng.Verify(ctx, bonsai.VerifyRequest{})
//	ok,  err := eng.Reach(ctx, "edge-1-1", "10.0.0.0/24")
//
// An Engine owns the compression pipeline's warm state: the destination
// classes, the compiled-policy (BDD) pool, and a cross-class deduplication
// cache that serves identical and symmetric classes without re-running
// abstraction refinement. Queries share that state; repeated queries on a
// stable network skip almost all compression work.
//
// # Incremental updates
//
// Networks evolve. Instead of rebuilding the engine after every
// configuration change, Apply takes a Delta — links going down or up, a
// route-map or prefix-list edit, prefixes added or removed — and carries
// every cached abstraction that is still valid across the change:
//
//	rep, err := eng.Apply(ctx, bonsai.Delta{
//	    LinkDown: []bonsai.LinkRef{{A: "agg-0-0", B: "core-0"}},
//	})
//	// rep.Adopted cached classes survived; rep.Invalidated must recompress.
//
// Apply re-validates each cached partition against the edited network with
// a cheap stability sweep (no refinement, no new BDDs) and adopts the
// survivors; only genuinely affected classes are invalidated and lazily
// recompressed by the next query. Queries issued concurrently with Apply
// keep running against the pre-delta state and never block.
//
// # Streaming compression
//
// Compress is the batch face of a streaming pipeline. CompressStream
// yields per-class results as they complete, with classes taken from the
// snapshot's class index by a worker pool that hands out every
// deduplication fingerprint's first class before any repeat (one
// refinement per fingerprint; the repeats ride the cache):
//
//	s, err := eng.CompressStream(ctx, bonsai.ClassSelector{})
//	for r := range s.Results() {
//	    fmt.Println(r.Prefix, r.AbstractNodes, r.Source)
//	}
//	err = s.Err()
//
// WithMemoryBudget bounds the engine's abstraction store: past the budget,
// least-recently-used cached abstractions are evicted and recompress on
// their next query, so memory is a policy rather than a function of how
// many classes the network has. Close releases the pooled BDD compilers'
// tables; a closed engine returns ErrClosed.
//
// All Engine methods take a context.Context; cancellation propagates into
// the compression and verification worker pools and stops them promptly.
package bonsai
