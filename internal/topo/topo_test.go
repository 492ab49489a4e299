package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if g.AddNode("a") != a {
		t.Fatal("AddNode not idempotent")
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if g.Name(a) != "a" {
		t.Fatalf("Name = %q", g.Name(a))
	}
}

func TestEdges(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(a, b) // duplicate ignored
	g.AddLink(b, c)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", g.NumLinks())
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Fatal("directedness broken")
	}
	if len(g.Succ(a)) != 1 || g.Succ(a)[0] != b {
		t.Fatal("Succ wrong")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self loop did not panic")
		}
	}()
	g := New()
	a := g.AddNode("a")
	g.AddEdge(a, a)
}

func TestEdgesDeterministic(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddLink(a, c)
	g.AddLink(a, b)
	es := g.Edges()
	for i := 1; i < len(es); i++ {
		if es[i-1].U > es[i].U || (es[i-1].U == es[i].U && es[i-1].V >= es[i].V) {
			t.Fatalf("edges not sorted: %v", es)
		}
	}
	if len(es) != 4 {
		t.Fatalf("len = %d", len(es))
	}
	_ = b
}

// checkEdgeIndex asserts the whole edge-index contract against the
// adjacency lists: Edges() is the edge set sorted by (U, V), EdgeIndex is its
// inverse, OutEdges carves it by source, and ReverseEdges pairs antiparallel
// edges.
func checkEdgeIndex(t *testing.T, g *Graph) {
	t.Helper()
	es, rev := g.Edges(), g.ReverseEdges()
	if len(es) != g.NumEdges() || len(rev) != len(es) {
		t.Fatalf("len(Edges) = %d, len(ReverseEdges) = %d, NumEdges = %d", len(es), len(rev), g.NumEdges())
	}
	for i, e := range es {
		if i > 0 && (es[i-1].U > e.U || (es[i-1].U == e.U && es[i-1].V >= e.V)) {
			t.Fatalf("edges not strictly sorted at %d: %v", i, es)
		}
		if j, ok := g.EdgeIndex(e.U, e.V); !ok || j != i {
			t.Fatalf("EdgeIndex(%v) = %d, %v; want %d", e, j, ok, i)
		}
		if lo, hi := g.OutEdges(e.U); i < lo || i >= hi {
			t.Fatalf("edge %d = %v outside OutEdges(%d) = [%d, %d)", i, e, e.U, lo, hi)
		}
		j, ok := g.EdgeIndex(e.V, e.U)
		switch {
		case ok && (rev[i] != int32(j) || rev[j] != int32(i)):
			t.Fatalf("rev[%d] = %d, rev[%d] = %d; want each other", i, rev[i], j, rev[j])
		case !ok && rev[i] != -1:
			t.Fatalf("rev[%d] = %d for lone edge %v", i, rev[i], e)
		}
	}
	n := 0
	for _, u := range g.Nodes() {
		lo, hi := g.OutEdges(u)
		if hi-lo != len(g.Succ(u)) {
			t.Fatalf("OutEdges(%d) spans %d, Succ has %d", u, hi-lo, len(g.Succ(u)))
		}
		for _, v := range g.Succ(u) {
			if !g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d, %d) false for an adjacency entry", u, v)
			}
			n++
		}
		for _, v := range g.Nodes() {
			if _, ok := g.EdgeIndex(u, v); ok != slices.Contains(g.Succ(u), v) {
				t.Fatalf("EdgeIndex(%d, %d) ok = %v disagrees with Succ", u, v, ok)
			}
		}
	}
	if n != len(es) {
		t.Fatalf("adjacency holds %d edges, Edges() %d", n, len(es))
	}
}

// TestEdgeIndexInterleaved grows a graph the way core.Assemble grows an
// abstract one — nodes and edges interleaved with reads — and checks the
// index contract after every mutation, so a stale memo cannot hide.
func TestEdgeIndexInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	checkEdgeIndex(t, g)
	for step := 0; step < 300; step++ {
		if g.NumNodes() < 2 || rng.Intn(8) == 0 {
			g.AddNode(fmt.Sprint("n", g.NumNodes()))
		} else {
			u, v := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				g.AddLink(u, v)
			} else {
				g.AddEdge(u, v)
			}
		}
		checkEdgeIndex(t, g)
	}
	if g.NumEdges() < 100 {
		t.Fatalf("only %d edges generated", g.NumEdges())
	}
}

// TestSuccKeepsInsertionOrder pins the order protocol tie-breaking follows:
// Succ is insertion order whatever order the edge index sorts into.
func TestSuccKeepsInsertionOrder(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddEdge(a, d)
	g.AddEdge(a, b)
	g.Edges()
	g.AddEdge(a, c)
	if got := g.Succ(a); !slices.Equal(got, []NodeID{d, b, c}) {
		t.Fatalf("Succ(a) = %v, want insertion order [d b c]", got)
	}
	if got := g.Edges(); !slices.Equal(got, []Edge{{a, b}, {a, c}, {a, d}}) {
		t.Fatalf("Edges() = %v", got)
	}
}

func TestLookup(t *testing.T) {
	g := New()
	g.AddNode("r1")
	if _, ok := g.Lookup("r2"); ok {
		t.Fatal("found missing node")
	}
	if id := g.MustLookup("r1"); g.Name(id) != "r1" {
		t.Fatal("MustLookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup on missing node did not panic")
		}
	}()
	g.MustLookup("nope")
}
