// Package hypergraph implements hypergraphs, the GYO acyclicity test, and
// a bounded exact search for generalized hypertree width (ghw), standing in
// for the detkdecomp tool the paper used in Section 6.2.
//
// The paper needs three verdicts about canonical hypergraphs of queries:
// ghw = 1 (equivalently, alpha-acyclicity), ghw = 2, and ghw = 3, plus the
// number of nodes in a witnessing decomposition. Queries with variables in
// the predicate position are the ones requiring hypergraph analysis; they
// are small (the cyclic ones have at most a few dozen vertices), so an
// exact search over edge covers with memoization is practical.
//
// An edge is a sorted, distinct []int of vertices. The GYO test runs over
// flat bitsets, ceil(n/64) words per edge, so it works for any number of
// vertices, and off a worklist: a vertex is visited when it is left in
// one edge, and an edge is tested for containment only after it shrinks,
// against the edges of its first vertex, so a chain of m edges costs
// O(m) tests rather than a rescan of all m² pairs per round. The exact
// width search packs a vertex set and an edge set into one uint64 each
// and is therefore capped at 64 vertices and 64 edges.
package hypergraph

import (
	"math/bits"
	"slices"
)

// Hypergraph is a hypergraph over vertices 0..N-1. The exact width search
// requires N <= 64 and at most 64 edges; larger hypergraphs can still be
// tested for acyclicity.
type Hypergraph struct {
	n     int
	edges [][]int
}

// New creates a hypergraph with n vertices and no edges.
func New(n int) *Hypergraph {
	return &Hypergraph{n: n}
}

// N returns the vertex count.
func (h *Hypergraph) N() int { return h.n }

// NumEdges returns the number of hyperedges.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Reset empties h into a hypergraph with n vertices and no edges. The
// edges' storage is kept for the edges added next, so a hypergraph
// reused across builds stops allocating once it has held its largest
// one; slices Edges returned before the reset are overwritten.
func (h *Hypergraph) Reset(n int) {
	h.n = n
	h.edges = h.edges[:0]
}

// AddEdge inserts a hyperedge over the given vertices, each in 0..N-1.
// Duplicate vertices within an edge are collapsed; an empty edge is
// ignored.
func (h *Hypergraph) AddEdge(vertices ...int) {
	if len(vertices) == 0 {
		return
	}
	var e []int
	if i := len(h.edges); i < cap(h.edges) {
		e = h.edges[:i+1][i][:0] // the storage of a reset edge
	}
	e = append(e, vertices...)
	slices.Sort(e)
	h.edges = append(h.edges, slices.Compact(e))
}

// Edges returns the hyperedges (shared backing; callers must not mutate).
func (h *Hypergraph) Edges() [][]int { return h.edges }

// Acyclic reports whether the hypergraph is alpha-acyclic, via GYO
// reduction: repeatedly (a) remove vertices occurring in exactly one edge
// and (b) remove edges contained in another edge, until fixpoint. The
// hypergraph is acyclic iff all edges disappear. Acyclicity coincides with
// generalized hypertree width <= 1 for non-trivial hypergraphs.
//
// The reduction runs off one worklist instead of rescanning every edge
// pair each round (after Tarjan and Yannakakis, 1984). A vertex is
// visited when its count of live edges drops to one, and an edge is
// tested for containment only after it loses a vertex, since only a
// shrinking edge can become a subset. A containing edge shares every
// vertex of the tested one, so only the edges incident to its first
// vertex are candidates.
//
// Each edge is a row of ceil(n/64) words in one flat bitset; size counts
// a live edge's vertices (0 once the edge is gone), occ counts the live
// edges a vertex occurs in, inc lists each vertex's edges (from start[v]
// to start[v+1]), and the worklist holds an edge i as i and a vertex v
// as -1-v. An edge is on the worklist at most once at a time (queued),
// and a vertex only once in all, so n+m entries suffice.
func (h *Hypergraph) Acyclic() bool {
	m, n, words := len(h.edges), h.n, (h.n+63)/64
	incidences := 0
	for _, e := range h.edges {
		incidences += len(e)
	}
	set := make([]uint64, m*words)
	scratch := make([]int, 3*m+3*n+1+incidences)
	size, queued, scratch := scratch[:m], scratch[m:2*m], scratch[2*m:]
	occ, start, scratch := scratch[:n], scratch[n:2*n+1], scratch[2*n+1:]
	inc, work := scratch[:incidences], scratch[incidences:incidences]
	row := func(i int) []uint64 { return set[i*words : (i+1)*words] }
	for i, e := range h.edges {
		r := row(i)
		for _, v := range e {
			r[v/64] |= 1 << (v % 64)
			occ[v]++
		}
		size[i] = len(e)
	}
	for v := range n {
		start[v+1] = start[v] + occ[v]
		occ[v] = 0
	}
	for i, e := range h.edges {
		for _, v := range e {
			inc[start[v]+occ[v]] = i
			occ[v]++
		}
		queued[i] = 1
		work = append(work, i)
	}
	for v := range n {
		if occ[v] == 1 {
			work = append(work, -1-v)
		}
	}
	live := m
	for len(work) > 0 && live > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if x < 0 {
			// (a) v is in one live edge: it leaves it. An edge left
			// empty is gone; one that shrank is tested again.
			v := -1 - x
			for _, i := range inc[start[v]:start[v+1]] {
				r := row(i)
				if r[v/64]&(1<<(v%64)) == 0 {
					continue
				}
				r[v/64] &^= 1 << (v % 64)
				occ[v] = 0
				if size[i]--; size[i] == 0 {
					live--
				} else if queued[i] == 0 {
					queued[i] = 1
					work = append(work, i)
				}
				break
			}
			continue
		}
		// (b) Edge i goes if another live edge contains it. Of two equal
		// edges, the one tested first goes and the other stays.
		i := x
		queued[i] = 0
		if size[i] == 0 {
			continue
		}
		r := row(i)
		first := 0
		for w, word := range r {
			if word != 0 {
				first = w*64 + bits.TrailingZeros64(word)
				break
			}
		}
		for _, j := range inc[start[first]:start[first+1]] {
			if j == i || size[j] < size[i] || !subset(r, row(j)) {
				continue
			}
			for w, word := range r {
				for ; word != 0; word &= word - 1 {
					v := w*64 + bits.TrailingZeros64(word)
					if occ[v]--; occ[v] == 1 {
						work = append(work, -1-v)
					}
				}
				r[w] = 0
			}
			size[i] = 0
			live--
			break
		}
	}
	return live == 0
}

// subset reports whether bitset a is contained in bitset b.
func subset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// MaximalEdges returns the number of edges that are not contained in
// another edge; of equal edges, the first counts. For acyclic
// hypergraphs this is the node count of the natural join-tree
// decomposition, which the paper uses as a caching indicator (Section
// 6.2).
//
// An edge that contains e holds e's smallest vertex, e[0], so e is
// tested only against the edges incident to e[0]: inc lists each
// vertex's edges, from start[v] to start[v+1], in edge order. Both live
// on the stack for a hypergraph of a typical query.
func (h *Hypergraph) MaximalEdges() int {
	incidences := 0
	for _, e := range h.edges {
		incidences += len(e)
	}
	var stack [128]int
	start := stack[:]
	if need := h.n + 1 + incidences; need > len(stack) {
		start = make([]int, need)
	}
	start, inc := start[:h.n+1], start[h.n+1:]
	for _, e := range h.edges {
		for _, v := range e {
			start[v+1]++
		}
	}
	for v := range h.n {
		start[v+1] += start[v]
	}
	for i, e := range h.edges {
		for _, v := range e {
			inc[start[v]] = i
			start[v]++
		}
	}
	// Filling moved each start[v] to start[v+1]: shift it back.
	copy(start[1:], start[:h.n])
	start[0] = 0
	cnt := 0
	for i, e := range h.edges {
		maximal := true
		for _, j := range inc[start[e[0]]:start[e[0]+1]] {
			f := h.edges[j]
			if len(e) < len(f) && sliceSubset(e, f) || len(e) == len(f) && j < i && slices.Equal(e, f) {
				maximal = false
				break
			}
		}
		if maximal {
			cnt++
		}
	}
	return cnt
}

func sliceSubset(a, b []int) bool {
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

// Decomposition summarizes a witnessing generalized hypertree
// decomposition found by GHW.
type Decomposition struct {
	Width int
	Nodes int // number of bags
}

// GHW computes the generalized hypertree width, trying k = 1, 2, ... up to
// maxK, and returns the width with a witnessing decomposition size. If the
// width exceeds maxK (or the hypergraph is too large for the exact search),
// ok is false.
func (h *Hypergraph) GHW(maxK int) (Decomposition, bool) {
	if len(h.edges) == 0 {
		return Decomposition{Width: 0, Nodes: 0}, true
	}
	if h.Acyclic() {
		return Decomposition{Width: 1, Nodes: h.MaximalEdges()}, true
	}
	if h.n > 64 || len(h.edges) > 64 {
		return Decomposition{}, false
	}
	for k := 2; k <= maxK; k++ {
		if nodes, ok := h.ghwAtMost(k); ok {
			return Decomposition{Width: k, Nodes: nodes}, true
		}
	}
	return Decomposition{}, false
}

// ghwAtMost searches for a generalized hypertree decomposition of width at
// most k over the dual view: a decomposition node is a bag formed by the
// union of at most k edges; uncovered edges must split into components
// connected through shared vertices outside the bag, each recursively
// decomposable with its interface to the bag covered by the child bag.
func (h *Hypergraph) ghwAtMost(k int) (int, bool) {
	m := len(h.edges)
	edgeMask := make([]uint64, m) // vertex bitmask per edge
	for i, e := range h.edges {
		var b uint64
		for _, v := range e {
			b |= 1 << uint(v)
		}
		edgeMask[i] = b
	}
	allEdges := uint64(1)<<uint(m) - 1

	type key struct{ rem, conn uint64 }
	memo := make(map[key]int) // -1: impossible; >0: node count

	var rec func(rem uint64, conn uint64) int
	rec = func(rem, conn uint64) int {
		if rem == 0 && conn == 0 {
			return 0
		}
		kk := key{rem, conn}
		if v, ok := memo[kk]; ok {
			return v
		}
		memo[kk] = -1 // guard against cycles
		// Candidate edges for the cover: any edge touching the remaining
		// edges' vertices or the connector.
		var needVerts uint64 = conn
		for i := 0; i < m; i++ {
			if rem&(1<<uint(i)) != 0 {
				needVerts |= edgeMask[i]
			}
		}
		var cands []int
		for i := 0; i < m; i++ {
			if edgeMask[i]&needVerts != 0 {
				cands = append(cands, i)
			}
		}
		best := -1
		// Enumerate covers of size 1..k from candidates.
		var choose func(start int, left int, bag uint64)
		choose = func(start, left int, bag uint64) {
			if best != -1 {
				return
			}
			if conn&^bag == 0 && bag != 0 {
				// Viable bag: edges fully covered disappear.
				newRem := rem
				for i := 0; i < m; i++ {
					if newRem&(1<<uint(i)) != 0 && edgeMask[i]&^bag == 0 {
						newRem &^= 1 << uint(i)
					}
				}
				if newRem == 0 {
					best = 1
					return
				}
				// Split remaining edges into components connected through
				// vertices outside the bag.
				comps := splitComponents(edgeMask, newRem, bag)
				total := 1
				ok := true
				for _, c := range comps {
					// Child connector: vertices of the component inside
					// this bag (the interface it must keep connected).
					var cv uint64
					for i := 0; i < m; i++ {
						if c&(1<<uint(i)) != 0 {
							cv |= edgeMask[i]
						}
					}
					childConn := cv & bag
					sub := rec(c, childConn)
					if sub < 0 {
						ok = false
						break
					}
					total += sub
				}
				if ok {
					best = total
					return
				}
			}
			if left == 0 {
				return
			}
			for i := start; i < len(cands); i++ {
				choose(i+1, left-1, bag|edgeMask[cands[i]])
				if best != -1 {
					return
				}
			}
		}
		choose(0, k, 0)
		memo[kk] = best
		return best
	}
	nodes := rec(allEdges, 0)
	return nodes, nodes >= 0
}

// splitComponents partitions the remaining edges (bitmask rem over edge
// indices) into groups connected through vertices not in bag.
func splitComponents(edgeMask []uint64, rem uint64, bag uint64) []uint64 {
	var comps []uint64
	unassigned := rem
	for unassigned != 0 {
		seed := uint64(1) << uint(bits.TrailingZeros64(unassigned))
		comp := seed
		verts := uint64(0)
		for i := range edgeMask {
			if seed&(1<<uint(i)) != 0 {
				verts = edgeMask[i] &^ bag
			}
		}
		for {
			grew := false
			for i := range edgeMask {
				bit := uint64(1) << uint(i)
				if unassigned&bit != 0 && comp&bit == 0 && edgeMask[i]&verts != 0 {
					comp |= bit
					verts |= edgeMask[i] &^ bag
					grew = true
				}
			}
			if !grew {
				break
			}
		}
		comps = append(comps, comp)
		unassigned &^= comp
	}
	return comps
}
