package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAcyclicBasics(t *testing.T) {
	// Single edge.
	h := New(3)
	h.AddEdge(0, 1, 2)
	if !h.Acyclic() {
		t.Error("single edge must be acyclic")
	}
	// Chain of binary edges.
	h2 := New(4)
	h2.AddEdge(0, 1)
	h2.AddEdge(1, 2)
	h2.AddEdge(2, 3)
	if !h2.Acyclic() {
		t.Error("path must be acyclic")
	}
	// Triangle of binary edges: cyclic.
	h3 := New(3)
	h3.AddEdge(0, 1)
	h3.AddEdge(1, 2)
	h3.AddEdge(2, 0)
	if h3.Acyclic() {
		t.Error("triangle must be cyclic")
	}
	// Triangle covered by one big edge: acyclic (alpha-acyclicity).
	h4 := New(3)
	h4.AddEdge(0, 1)
	h4.AddEdge(1, 2)
	h4.AddEdge(2, 0)
	h4.AddEdge(0, 1, 2)
	if !h4.Acyclic() {
		t.Error("covered triangle is alpha-acyclic")
	}
}

func TestAcyclicEmpty(t *testing.T) {
	h := New(0)
	if !h.Acyclic() {
		t.Error("empty hypergraph is acyclic")
	}
	d, ok := h.GHW(3)
	if !ok || d.Width != 0 {
		t.Errorf("empty GHW = %+v ok=%v", d, ok)
	}
}

func TestPaperExample51Hypergraph(t *testing.T) {
	// Second query of Example 5.1:
	//   ?x1 ?x2 ?x3 . ?x3 :a ?x4 . ?x4 ?x2 ?x5
	// Variables: x1=0 x2=1 x3=2 x4=3 x5=4.
	// Hyperedges: {x1,x2,x3}, {x3,x4}, {x4,x2,x5}.
	h := New(5)
	h.AddEdge(0, 1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 1, 4)
	// The hypergraph is cyclic (join on ?x2 closes a cycle).
	if h.Acyclic() {
		t.Error("Example 5.1 hypergraph must be cyclic")
	}
	d, ok := h.GHW(3)
	if !ok {
		t.Fatal("GHW search failed")
	}
	if d.Width != 2 {
		t.Errorf("ghw = %d, want 2", d.Width)
	}
}

func TestGHWTriangle(t *testing.T) {
	h := New(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 0)
	d, ok := h.GHW(3)
	if !ok || d.Width != 2 {
		t.Errorf("triangle ghw = %+v ok=%v, want width 2", d, ok)
	}
}

func TestGHWAcyclicJoinTreeNodes(t *testing.T) {
	// Star join: edges {0,1},{0,2},{0,3}: acyclic with 3 maximal edges.
	h := New(4)
	h.AddEdge(0, 1)
	h.AddEdge(0, 2)
	h.AddEdge(0, 3)
	d, ok := h.GHW(3)
	if !ok || d.Width != 1 {
		t.Fatalf("ghw = %+v, want 1", d)
	}
	if d.Nodes != 3 {
		t.Errorf("join tree nodes = %d, want 3", d.Nodes)
	}
}

func TestGHWGrid(t *testing.T) {
	// 3x3 grid of binary edges has treewidth 3... its ghw is 2 (known:
	// ghw <= tw; for grids ghw(3x3) = 2 since two rows of 3 vertices can
	// be covered by 2 edges? Edges here are binary, so a bag of k edges
	// covers 2k vertices; the 3x3 grid needs bags of 3 vertices => k=2).
	// We assert only that the search terminates with 2 <= width <= 3.
	idx := func(r, c int) int { return 3*r + c }
	h := New(9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if c+1 < 3 {
				h.AddEdge(idx(r, c), idx(r, c+1))
			}
			if r+1 < 3 {
				h.AddEdge(idx(r, c), idx(r+1, c))
			}
		}
	}
	if h.Acyclic() {
		t.Fatal("grid must be cyclic")
	}
	d, ok := h.GHW(3)
	if !ok {
		t.Fatal("grid ghw not found within 3")
	}
	if d.Width < 2 || d.Width > 3 {
		t.Errorf("grid ghw = %d, want in [2,3]", d.Width)
	}
}

func TestGHWK4Binary(t *testing.T) {
	// K4 with binary edges: tw 3, ghw 2 (bags of two opposite edges).
	h := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			h.AddEdge(i, j)
		}
	}
	d, ok := h.GHW(3)
	if !ok || d.Width != 2 {
		t.Errorf("K4 ghw = %+v, want 2", d)
	}
}

// Property: hypergraphs whose binary edges form a forest are acyclic, and
// GHW always reports width 1 for them.
func TestForestHypergraphsAcyclic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		h := New(n)
		for i := 1; i < n; i++ {
			h.AddEdge(i, rng.Intn(i))
		}
		if !h.Acyclic() {
			return false
		}
		d, ok := h.GHW(3)
		return ok && d.Width == 1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: adding a covering edge over all vertices makes any hypergraph
// alpha-acyclic.
func TestCoveringEdgeMakesAcyclic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		h := New(n)
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				h.AddEdge(a, b)
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		h.AddEdge(all...)
		return h.Acyclic()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: GHW is monotone under adding edges contained in existing ones.
func TestGHWSubedgeInvariance(t *testing.T) {
	h := New(5)
	h.AddEdge(0, 1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 1, 4)
	d1, ok1 := h.GHW(3)
	h.AddEdge(0, 1) // contained in {0,1,2}
	d2, ok2 := h.GHW(3)
	if !ok1 || !ok2 || d1.Width != d2.Width {
		t.Errorf("width changed by contained edge: %+v vs %+v", d1, d2)
	}
}
