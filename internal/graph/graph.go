// Package graph implements the undirected graphs and graph algorithms used
// by the shape analysis of Section 6 of the paper: connectivity, girth,
// the tree-like shape predicates (chain, chain set, star, tree, forest,
// cycle), the petal/flower decomposition of Definition 6.1, and exact
// treewidth for the small graphs that arise from queries.
//
// Graphs here are canonical graphs of queries: simple undirected graphs
// (edge sets, so parallel query edges collapse) that may contain self-loops
// (from triples like ?x :p ?x).
//
// Almost every canonical graph is a small forest, and the representation
// is laid out for that case. A node's neighbours are a sorted, distinct
// []int; self-loops are a []bool and a count; AddEdge keeps the number of
// connected components with a union-find. A graph is then a forest exactly
// when it has no self-loop and M = N - components, an O(1) test, and the
// predicates a forest settles by definition (IsForest, IsFlower,
// IsFlowerSet, Treewidth, Girth) answer it without a search. The searches
// (biconnected components, girth BFS, exact treewidth) run only on graphs
// with a cycle.
package graph

import "slices"

// Graph is an undirected graph over nodes 0..N-1 with set semantics for
// edges. Self-loops are permitted and tracked separately from the simple
// adjacency structure.
type Graph struct {
	n      int
	adj    [][]int // sorted, distinct non-loop neighbours
	loop   []bool
	loops  int   // number of nodes with a self-loop
	edges  int   // number of non-loop edges
	parent []int // union-find over nodes; only AddEdge writes it
	comps  int   // number of connected components
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	parent := make([]int, n)
	for u := range parent {
		parent[u] = u
	}
	return &Graph{n: n, adj: make([][]int, n), loop: make([]bool, n), parent: parent, comps: n}
}

// Reset empties g into a graph with n nodes and no edges. The node and
// adjacency storage is kept for the edges added next, so a graph reused
// across builds stops allocating once it has held its largest one;
// slices Neighbors returned before the reset are overwritten.
func (g *Graph) Reset(n int) {
	g.n, g.loops, g.edges, g.comps = n, 0, 0, n
	g.adj, g.loop, g.parent = resize(g.adj, n), resize(g.loop, n), resize(g.parent, n)
	for u := range n {
		g.adj[u] = g.adj[u][:0]
		g.loop[u] = false
		g.parent[u] = u
	}
}

// resize returns s resliced to n elements, growing its storage only when
// n exceeds its capacity. Elements past len(s) keep what they held
// before, which for adj is the neighbour storage Reset reuses.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of distinct non-loop edges.
func (g *Graph) M() int { return g.edges }

// Loops returns the number of nodes carrying a self-loop.
func (g *Graph) Loops() int { return g.loops }

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge is a
// no-op (edges form a set); u == v records a self-loop.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		if !g.loop[u] {
			g.loop[u] = true
			g.loops++
		}
		return
	}
	i, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return
	}
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
	g.edges++
	if ru, rv := g.find(u), g.find(v); ru != rv {
		g.parent[ru] = rv
		g.comps--
	}
}

// find returns u's union-find root, halving the path as it goes.
func (g *Graph) find(u int) int {
	for g.parent[u] != u {
		g.parent[u] = g.parent[g.parent[u]]
		u = g.parent[u]
	}
	return u
}

// HasEdge reports whether {u, v} is an edge (or a self-loop when u == v).
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return g.loop[u]
	}
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// Degree returns the number of distinct non-loop neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// HasLoop reports whether node u has a self-loop.
func (g *Graph) HasLoop(u int) bool { return g.loop[u] }

// Neighbors returns the sorted neighbor list of u (self-loops excluded).
// The slice is shared with the graph; callers must not modify it.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// acyclic reports whether the graph without its self-loops is a forest:
// every edge joins two components, so M = N - components.
func (g *Graph) acyclic() bool { return g.edges == g.n-g.comps }

// maxDegree returns the largest number of distinct non-loop neighbors.
func (g *Graph) maxDegree() int {
	d := 0
	for _, nb := range g.adj {
		d = max(d, len(nb))
	}
	return d
}

// Components returns the connected components as sorted node slices, in
// order of smallest contained node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	comps := make([][]int, 0, g.comps)
	for s := range g.n {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []int{s}
		for i := 0; i < len(comp); i++ {
			for _, v := range g.adj[comp[i]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether the graph is connected (true for the empty and
// single-node graphs).
func (g *Graph) Connected() bool { return g.comps <= 1 }

// Subgraph returns the induced subgraph on nodes, together with the mapping
// from new node index to original node index.
func (g *Graph) Subgraph(nodes []int) (*Graph, []int) {
	idx := make([]int, g.n)
	for u := range idx {
		idx[u] = -1
	}
	for i, u := range nodes {
		idx[u] = i
	}
	sub := New(len(nodes))
	for i, u := range nodes {
		if g.loop[u] {
			sub.AddEdge(i, i)
		}
		for _, v := range g.adj[u] {
			if j := idx[v]; j > i {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, slices.Clone(nodes)
}

// members marks the given nodes in a fresh n-slice.
func (g *Graph) members(nodes []int) []bool {
	in := make([]bool, g.n)
	for _, u := range nodes {
		in[u] = true
	}
	return in
}

// edgeCount of component nodes (assumes comp is a component: counts edges
// with both endpoints inside).
func (g *Graph) componentEdges(comp []int) int {
	in := g.members(comp)
	cnt := 0
	for _, u := range comp {
		for _, v := range g.adj[u] {
			if in[v] && u < v {
				cnt++
			}
		}
	}
	return cnt
}

// IsChain reports whether the graph is a single chain (path) of length >= 1:
// connected, acyclic, all degrees at most two, no self-loops. A single edge
// is a chain of length one.
func (g *Graph) IsChain() bool {
	return g.edges > 0 && g.IsTree() && g.maxDegree() <= 2
}

// IsChainSet reports whether every connected component is a chain.
// The empty graph is vacuously a chain set (a query without triples).
func (g *Graph) IsChainSet() bool {
	return g.IsForest() && g.maxDegree() <= 2
}

// IsSingleEdge reports whether the graph is exactly one edge.
func (g *Graph) IsSingleEdge() bool {
	return g.n == 2 && g.edges == 1 && g.loops == 0
}

// IsTree reports whether the graph is connected and acyclic with at least
// one node.
func (g *Graph) IsTree() bool {
	return g.n > 0 && g.loops == 0 && g.comps == 1 && g.edges == g.n-1
}

// IsForest reports whether every component is a tree: no self-loop, and
// M = N - components.
func (g *Graph) IsForest() bool { return g.loops == 0 && g.acyclic() }

// IsStar reports whether the graph is a tree with exactly one node having
// more than two neighbors (Definition in Section 6.1).
func (g *Graph) IsStar() bool {
	if !g.IsTree() {
		return false
	}
	centers := 0
	for _, nb := range g.adj {
		if len(nb) > 2 {
			centers++
		}
	}
	return centers == 1
}

// IsCycle reports whether the graph is a single cycle: connected, every
// degree exactly two, edges == nodes, no self-loops, length >= 3.
func (g *Graph) IsCycle() bool {
	if g.n < 3 || g.loops > 0 || g.edges != g.n || g.comps != 1 {
		return false
	}
	for _, nb := range g.adj {
		if len(nb) != 2 {
			return false
		}
	}
	return true
}

// Girth returns the length of the shortest cycle, or 0 if the graph is
// acyclic. Self-loops count as cycles of length one.
func (g *Graph) Girth() int {
	if g.loops > 0 {
		return 1
	}
	if g.acyclic() {
		return 0
	}
	best := 0
	// BFS from every node; a non-tree edge at depth d closes a cycle of
	// length dist(u)+dist(v)+1.
	dist := make([]int, g.n)
	parent := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for s := range g.n {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		parent[s] = -1
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, v := range g.adj[u] {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
				} else if v != parent[u] {
					cyc := dist[u] + dist[v] + 1
					if best == 0 || cyc < best {
						best = cyc
					}
				}
			}
		}
	}
	return best
}
