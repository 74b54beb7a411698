package shapes

import (
	"testing"

	"sparqlog/internal/graph"
	"sparqlog/internal/hypergraph"
)

// TestShapeKernelAllocs pins the allocations of the per-query shape
// analyses on the graphs that dominate the corpus: a forest is settled
// without a search, and the GYO test allocates its bitsets and counters
// once.
func TestShapeKernelAllocs(t *testing.T) {
	edge := graph.New(2)
	edge.AddEdge(0, 1)
	star := graph.New(5)
	for leaf := 1; leaf < 5; leaf++ {
		star.AddEdge(0, leaf)
	}
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
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, got, tc.max)
		}
	}
}
