package hypergraph_test

// The map-based kernels that the bitset GYO and the slice union-find
// replaced, kept as the oracle for TestOracleRandomHypergraphs and
// TestOracleCorpusHypergraphs.

import (
	"slices"
	"sort"

	"sparqlog/internal/hypergraph"
)

// refEdge is the parent's AddEdge: vertices deduplicated through a map,
// then sorted.
func refEdge(vertices []int) []int {
	seen := make(map[int]bool, len(vertices))
	var e []int
	for _, v := range vertices {
		if !seen[v] {
			seen[v] = true
			e = append(e, v)
		}
	}
	sort.Ints(e)
	return e
}

// refAcyclic is GYO over map[int]bool edge sets, recounting vertex
// occurrences on every round.
func refAcyclic(in [][]int) bool {
	// Work on copies of the edge sets.
	edges := make([]map[int]bool, 0, len(in))
	for _, e := range in {
		m := make(map[int]bool, len(e))
		for _, v := range e {
			m[v] = true
		}
		edges = append(edges, m)
	}
	for {
		changed := false
		// Vertex occurrence counts.
		occ := make(map[int]int)
		for _, e := range edges {
			for v := range e {
				occ[v]++
			}
		}
		for _, e := range edges {
			for v := range e {
				if occ[v] == 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		// Remove empty edges and edges contained in another edge.
		var kept []map[int]bool
		for i, e := range edges {
			if len(e) == 0 {
				changed = true
				continue
			}
			contained := false
			for j, f := range edges {
				if i == j || len(e) > len(f) {
					continue
				}
				if j < i && len(e) == len(f) && equalSets(e, f) {
					contained = true // duplicate: keep only the first
					break
				}
				if isSubset(e, f) && !(len(e) == len(f) && j > i) {
					if len(e) < len(f) {
						contained = true
						break
					}
				}
			}
			if contained {
				changed = true
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
		if !changed {
			return len(edges) == 0
		}
		if len(edges) == 0 {
			return true
		}
	}
}

func equalSets(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func isSubset(a, b map[int]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// refGHW is GHW with refAcyclic as its width-one test; the exact search
// behind it is the package's own.
func refGHW(h *hypergraph.Hypergraph, maxK int) (hypergraph.Decomposition, bool) {
	if h.NumEdges() == 0 {
		return hypergraph.Decomposition{Width: 0, Nodes: 0}, true
	}
	if refAcyclic(h.Edges()) {
		return hypergraph.Decomposition{Width: 1, Nodes: refMaximalEdges(h.Edges())}, true
	}
	if h.N() > 64 || h.NumEdges() > 64 {
		return hypergraph.Decomposition{}, false
	}
	for k := 2; k <= maxK; k++ {
		if nodes, ok := hypergraph.GHWAtMost(h, k); ok {
			return hypergraph.Decomposition{Width: k, Nodes: nodes}, true
		}
	}
	return hypergraph.Decomposition{}, false
}

// refMaximalEdges is the parent's MaximalEdges: every pair of edges
// compared, an edge counted unless a longer edge contains it or an
// equal edge comes before it.
func refMaximalEdges(edges [][]int) int {
	cnt := 0
	for i, e := range edges {
		maximal := true
		for j, f := range edges {
			if i == j {
				continue
			}
			if len(e) < len(f) && refSubset(e, f) {
				maximal = false
				break
			}
			if len(e) == len(f) && j < i && slices.Equal(e, f) {
				maximal = false // deduplicate equal edges
				break
			}
		}
		if maximal {
			cnt++
		}
	}
	return cnt
}

// refSubset reports whether sorted a is contained in sorted b.
func refSubset(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}
