package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"bonsai"
	"bonsai/internal/netgen"
)

// benchServer stands up a daemon over httptest with one warm fattree
// tenant and returns a client for it. The compress warms the abstraction
// cache so served queries measure the steady state, not first-touch
// refinement.
func benchServer(b *testing.B, k int) *Client {
	b.Helper()
	s := New(Config{MaxQueriesPerTenant: 64, ApplyQueueDepth: 64})
	hs := httptest.NewServer(s)
	b.Cleanup(func() {
		s.Drain()
		hs.Close()
	})
	c := NewClient(hs.URL)
	ctx := context.Background()
	if err := openNetwork(ctx, c, "bench", netgen.Fattree(k, netgen.PolicyShortestPath)); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Compress(ctx, "bench", bonsai.ClassSelector{}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkServedReach measures compressed reachability queries served
// through the full HTTP path (mux, admission, JSON) with RunParallel
// clients, the daemon-side counterpart of the in-process
// BenchmarkLocalReach below. b.N is the total query count; throughput is
// queries/sec = 1e9 / (ns/op).
func BenchmarkServedReach(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("fattree-%d", k), func(b *testing.B) {
			c := benchServer(b, k)
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := c.Reach(ctx, "bench", "edge-0-0", "10.0.1.0/24", false)
					if err != nil || !res.Reachable {
						b.Errorf("reach: %+v, %v", res, err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLocalReach is the same warm query against an in-process
// engine: the gap to BenchmarkServedReach is the HTTP/JSON serving tax.
func BenchmarkLocalReach(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("fattree-%d", k), func(b *testing.B) {
			eng, err := bonsai.Open(netgen.Fattree(k, netgen.PolicyShortestPath))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { eng.Close() })
			ctx := context.Background()
			if _, err := eng.Compress(ctx, bonsai.ClassSelector{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := eng.Reach(ctx, "edge-0-0", "10.0.1.0/24")
					if err != nil || !res.Reachable {
						b.Errorf("reach: %+v, %v", res, err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkServedApply measures sequential link-flap applies through POST
// /apply — each op is one delta enqueued, applied by the tenant's worker,
// and its report returned. Alternating down/up keeps the topology
// returning to its start state so the run doesn't drift.
func BenchmarkServedApply(b *testing.B) {
	c := benchServer(b, 4)
	ctx := context.Background()
	var n atomic.Int64
	flap := [2]bonsai.Delta{
		{LinkDown: []bonsai.LinkRef{{A: "core-0", B: "agg-0-0"}}},
		{LinkUp: []bonsai.LinkRef{{A: "core-0", B: "agg-0-0"}}},
	}
	b.ResetTimer()
	for b.Loop() {
		d := flap[n.Add(1)%2]
		if _, err := c.Apply(ctx, "bench", d); err != nil {
			b.Fatal(err)
		}
	}
}
