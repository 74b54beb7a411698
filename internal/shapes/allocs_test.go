package shapes

import (
	"testing"

	"sparqlog/internal/graph"
	"sparqlog/internal/hypergraph"
	"sparqlog/internal/sparql"
)

// TestShapeKernelAllocs pins the allocations of the per-query shape
// analyses on the graphs that dominate the corpus: a forest is settled
// without a search, the GYO test allocates its bitsets and counters
// once, and a warm Builder builds into the storage it holds.
func TestShapeKernelAllocs(t *testing.T) {
	edge := graph.New(2)
	edge.AddEdge(0, 1)
	star := graph.New(5)
	for leaf := 1; leaf < 5; leaf++ {
		star.AddEdge(0, leaf)
	}
	var b Builder
	edgeTriples := triplesOf(t, "SELECT * WHERE { ?x <urn:p> ?y }")
	starTriples := triplesOf(t, "SELECT * WHERE { ?c <urn:p> ?a . ?c <urn:q> ?b . ?c <urn:r> <urn:x> . ?c <urn:s> \"v\" }")
	build := func(triples []*sparql.TriplePattern) func() {
		return func() {
			g, _ := b.Graph(triples, Options{})
			Classify(g)
		}
	}
	build(starTriples)() // a warm builder has held its largest graph
	twoEdges := hypergraph.New(3)
	twoEdges.AddEdge(0, 1)
	twoEdges.AddEdge(1, 2)
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Classify(single edge)", 0, func() { Classify(edge) }},
		{"Classify(five-node star)", 0, func() { Classify(star) }},
		{"GHW(3) of a two-edge acyclic hypergraph", 3, func() { twoEdges.GHW(3) }},
		{"MaximalEdges of a two-edge hypergraph", 0, func() { twoEdges.MaximalEdges() }},
		{"warm Builder.Graph + Classify(single edge)", 0, build(edgeTriples)},
		{"warm Builder.Graph + Classify(five-node star)", 0, build(starTriples)},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, got, tc.max)
		}
	}
}
