// Package topo provides the directed graph used as the topology component of
// a Stable Routing Problem (paper §3.1: G = (V, E, d)). Vertices carry names
// so that compressed networks remain human-readable; edges are directed, and
// an SRP edge (u, v) means "u may learn routes from v".
package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// NodeID identifies a vertex within one Graph.
type NodeID int

// Edge is a directed edge (U learns from V).
type Edge struct {
	U, V NodeID
}

// Graph is a directed graph with named vertices. The zero value is not
// usable; call New.
//
// Every directed edge has an index: its position in Edges(), which lists the
// edges sorted by (U, V). Per-edge tables elsewhere are dense vectors aligned
// with that order, so the index — found by EdgeIndex in O(log deg) — is the
// one key an edge needs.
type Graph struct {
	names []string
	index map[string]NodeID
	// succ[u] lists the nodes u has edges to (u learns from them) in
	// insertion order, which protocol tie-breaking follows (srp.Solve).
	succ   [][]NodeID
	nEdges int
	// idx memoises the sorted edge index: hot paths (refinement, assembly,
	// instance construction) read it far more often than the graph mutates.
	// Atomic so concurrent readers of a finished graph can populate it
	// without a data race; AddEdge clears it.
	idx atomic.Pointer[edgeIndex]
}

// edgeIndex is the graph's edge set in compressed-sparse-row form.
type edgeIndex struct {
	edges []Edge  // sorted by (U, V)
	off   []int32 // edges[off[u]:off[u+1]] are u's out-edges, sorted by V
	rev   []int32 // rev[i] is the index of edges[i]'s antiparallel edge, -1 when absent
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]NodeID)}
}

// AddNode adds a vertex with the given name, or returns the existing one.
func (g *Graph) AddNode(name string) NodeID {
	if id, ok := g.index[name]; ok {
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.index[name] = id
	g.succ = append(g.succ, nil)
	g.mutated()
	return id
}

// Lookup returns the vertex with the given name.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.index[name]
	return id, ok
}

// MustLookup returns the vertex with the given name or panics.
func (g *Graph) MustLookup(name string) NodeID {
	id, ok := g.index[name]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %q", name))
	}
	return id
}

// Name returns the name of vertex u.
func (g *Graph) Name(u NodeID) string { return g.names[u] }

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.nEdges }

// NumLinks returns the number of undirected links, counting a pair of
// antiparallel directed edges as one link and a lone directed edge as one.
func (g *Graph) NumLinks() int {
	x := g.edgeIndex()
	n := 0
	for i, e := range x.edges {
		if e.U < e.V || x.rev[i] < 0 {
			n++
		}
	}
	return n
}

// AddEdge inserts the directed edge (u, v). Self loops are rejected because
// well-formed SRPs are self-loop-free (paper §3.1).
func (g *Graph) AddEdge(u, v NodeID) {
	if u == v {
		panic(fmt.Sprintf("topo: self loop at %s", g.names[u]))
	}
	if slices.Contains(g.succ[u], v) {
		return
	}
	g.succ[u] = append(g.succ[u], v)
	g.nEdges++
	g.mutated()
}

// mutated drops the memoised edge index. Building a graph is a run of
// mutations with nothing memoised, so the common case is a plain load.
func (g *Graph) mutated() {
	if g.idx.Load() != nil {
		g.idx.Store(nil)
	}
}

// AddLink inserts both directed edges between u and v.
func (g *Graph) AddLink(u, v NodeID) {
	g.AddEdge(u, v)
	g.AddEdge(v, u)
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeIndex(u, v)
	return ok
}

// Succ returns the vertices u has edges to, in insertion order. The caller
// must not modify it.
func (g *Graph) Succ(u NodeID) []NodeID { return g.succ[u] }

// Edges returns all directed edges sorted by (U, V). The returned slice is
// shared (memoised until the next mutation) — callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edgeIndex().edges }

// EdgeIndex returns the position of the directed edge (u, v) in Edges().
func (g *Graph) EdgeIndex(u, v NodeID) (int, bool) { return g.edgeIndex().find(u, v) }

func (x *edgeIndex) find(u, v NodeID) (int, bool) {
	// A hand-rolled binary search over u's span: this is the inner loop of
	// symmetry transport, and a comparison callback per step shows there.
	lo, end := int(x.off[u]), int(x.off[u+1])
	hi := end
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x.edges[m].V < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < end && x.edges[lo].V == v
}

// OutEdges returns the half-open index range of u's out-edges in Edges():
// they are contiguous and sorted by V.
func (g *Graph) OutEdges(u NodeID) (lo, hi int) {
	x := g.edgeIndex()
	return int(x.off[u]), int(x.off[u+1])
}

// ReverseEdges returns, aligned with Edges(), the index of each edge's
// antiparallel edge (V, U), or -1 when the graph lacks it. Shared like
// Edges(): callers must not modify it.
func (g *Graph) ReverseEdges() []int32 { return g.edgeIndex().rev }

// edgeIndex returns the memoised sorted edge index, building it on first
// use after a mutation: one pass over the adjacency lists, each list sorted
// on its own (no map walk, no global sort).
func (g *Graph) edgeIndex() *edgeIndex {
	if x := g.idx.Load(); x != nil {
		return x
	}
	x := &edgeIndex{
		edges: make([]Edge, 0, g.nEdges),
		off:   make([]int32, len(g.succ)+1),
		rev:   make([]int32, g.nEdges),
	}
	for u, vs := range g.succ {
		lo := len(x.edges)
		for _, v := range vs {
			x.edges = append(x.edges, Edge{NodeID(u), v})
		}
		slices.SortFunc(x.edges[lo:], func(a, b Edge) int { return cmp.Compare(a.V, b.V) })
		x.off[u+1] = int32(len(x.edges))
	}
	// The reverse of (u, v) sits among v's out-edges; for a fixed v the
	// edges into it come up in ascending u, so one cursor per node walks
	// v's sorted out-list in step — a linear merge, no searching.
	cur := slices.Clone(x.off[:len(g.succ)])
	for i, e := range x.edges {
		c, end := cur[e.V], x.off[e.V+1]
		for c < end && x.edges[c].V < e.U {
			c++
		}
		cur[e.V] = c
		x.rev[i] = -1
		if c < end && x.edges[c].V == e.U {
			x.rev[i] = c
		}
	}
	g.idx.Store(x)
	return x
}

// Nodes returns all vertex IDs in order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, len(g.names))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// String renders the graph compactly for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d nodes, %d edges}", g.NumNodes(), g.NumEdges())
}
