package hypergraph_test

import (
	"math/rand"
	"slices"
	"testing"

	"sparqlog/internal/analysis"
	"sparqlog/internal/hypergraph"
	"sparqlog/internal/loggen"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

// checkAgainstOracle compares Acyclic, MaximalEdges and GHW(3) of h
// with the oracle's.
func checkAgainstOracle(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Helper()
	if got, want := h.Acyclic(), refAcyclic(h.Edges()); got != want {
		t.Fatalf("%s: Acyclic = %v, oracle %v (edges %v)", name, got, want, h.Edges())
	}
	if got, want := h.MaximalEdges(), refMaximalEdges(h.Edges()); got != want {
		t.Fatalf("%s: MaximalEdges = %d, oracle %d (edges %v)", name, got, want, h.Edges())
	}
	gd, gok := h.GHW(3)
	rd, rok := refGHW(h, 3)
	if gd != rd || gok != rok {
		t.Fatalf("%s: GHW(3) = %+v %v, oracle %+v %v", name, gd, gok, rd, rok)
	}
}

// TestOracleRandomHypergraphs draws hypergraphs over up to 130 vertices,
// so edges cross the 64-bit word boundary of the GYO bitsets, with
// repeated vertices inside an edge, duplicate edges and nested edges.
func TestOracleRandomHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for range 4000 {
		n := 1 + rng.Intn(130)
		// A few vertex ids spread over 0..n-1 keep edges overlapping.
		pool := rng.Perm(n)[:1+rng.Intn(min(n, 9))]
		h := hypergraph.New(n)
		var want [][]int
		for range rng.Intn(10) {
			var vs []int
			switch {
			case len(want) > 0 && rng.Intn(4) == 0: // a duplicate or nested edge
				e := want[rng.Intn(len(want))]
				vs = slices.Clone(e[:1+rng.Intn(len(e))])
				rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
			default:
				for range 1 + rng.Intn(4) {
					vs = append(vs, pool[rng.Intn(len(pool))])
				}
			}
			h.AddEdge(vs...)
			want = append(want, refEdge(vs))
		}
		if !slices.EqualFunc(h.Edges(), want, slices.Equal) {
			t.Fatalf("Edges = %v, oracle %v", h.Edges(), want)
		}
		checkAgainstOracle(t, "random hypergraph", h)
	}
}

// TestOracleLargeHypergraphs draws the sizes the GYO worklist exists
// for: chains, trees and cycles of 16 to 80 edges, half of them with
// their vertices scattered over up to twice as many ids, so many span
// more than 64, with duplicate and nested edges mixed in.
func TestOracleLargeHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	over64, searched := 0, 0
	for trial := range 600 {
		shape := []string{"chain", "tree", "cycle"}[trial%3]
		m := 16 + rng.Intn(65)
		var edges [][]int
		next := 0
		fresh := func() int { next++; return next - 1 }
		for i := range m {
			var e []int
			switch {
			case i == 0:
			case shape == "tree":
				p := edges[rng.Intn(len(edges))]
				e = append(e, p[rng.Intn(len(p))])
			default:
				p := edges[i-1]
				e = append(e, p[len(p)-1])
			}
			for range 1 + rng.Intn(2) {
				e = append(e, fresh())
			}
			if shape == "cycle" && i == m-1 {
				e = append(e, edges[0][0])
			}
			edges = append(edges, e)
		}
		for range rng.Intn(4) { // a duplicate or nested edge
			e := edges[rng.Intn(len(edges))]
			edges = append(edges, slices.Clone(e[:1+rng.Intn(len(e))]))
		}
		n := next
		if trial%2 == 0 {
			n += rng.Intn(next + 1)
		}
		ids := rng.Perm(n)
		h := hypergraph.New(n)
		for _, e := range edges {
			vs := make([]int, len(e))
			for k, v := range e {
				vs[k] = ids[v]
			}
			h.AddEdge(vs...)
		}
		if n > 64 {
			over64++
		}
		if !h.Acyclic() && n <= 64 && h.NumEdges() <= 64 {
			searched++
		}
		checkAgainstOracle(t, shape, h)
	}
	t.Logf("600 hypergraphs: %d over more than 64 vertex ids, %d cyclic within the exact width search", over64, searched)
}

// TestMaximalEdgesDedup counts one maximal edge among a duplicate, a
// contained edge and one containing all, as the oracle does.
func TestMaximalEdgesDedup(t *testing.T) {
	h := hypergraph.New(3)
	h.AddEdge(0, 1)
	h.AddEdge(0, 1)    // duplicate
	h.AddEdge(0)       // contained
	h.AddEdge(0, 1, 2) // contains all
	if got, want := h.MaximalEdges(), refMaximalEdges(h.Edges()); got != 1 || want != 1 {
		t.Errorf("maximal edges = %d, oracle %d, want 1", got, want)
	}
}

func TestOracleCorpusHypergraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	seen := map[string]bool{}
	hypergraphs := 0
	for _, seed := range []int64{1, 2017} {
		for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				seen[e] = true
				q, err := sparql.Parse(e)
				if err != nil || len(q.Triples()) == 0 {
					continue
				}
				for _, opts := range []shapes.Options{
					{},
					{ExcludeConstants: true},
					{CollapseEqual: analysis.Scan(q).Collapses},
				} {
					checkAgainstOracle(t, e, shapes.CanonicalHypergraph(q.Triples(), opts))
					hypergraphs++
				}
			}
		}
	}
	t.Logf("%d canonical hypergraphs agree with the oracle", hypergraphs)
}
