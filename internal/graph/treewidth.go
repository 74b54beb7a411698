package graph

// Exact treewidth for the small graphs arising from queries.
//
// The paper (Section 6.2) reports that all CQ-like queries have treewidth
// at most two except a single query of treewidth three (Figure 7). The
// classifier therefore needs three things, all implemented here:
//
//  1. a treewidth-one certificate (the O(1) forest test, M = N - components),
//  2. a linear-time treewidth-two certificate (series-parallel style
//     reduction: repeatedly delete degree-<=1 nodes and contract degree-2
//     nodes; the graph has treewidth <= 2 iff the reduction empties it),
//  3. an exact branch-and-bound over elimination orderings for the rare
//     remainder, feasible because those graphs are tiny.

// MaxExactNodes bounds the exact treewidth search; canonical graphs beyond
// this size are classified only up to the fast certificates.
const MaxExactNodes = 64

// Treewidth returns the exact treewidth of the graph (max over connected
// components). The empty graph and a single node have treewidth zero. For
// graphs larger than MaxExactNodes that fail both fast certificates, it
// returns -1 (unknown); such graphs do not occur in the paper's corpus.
// Self-loops do not affect treewidth and are ignored.
func (g *Graph) Treewidth() int {
	if g.acyclic() {
		return min(g.edges, 1)
	}
	best := 0
	for _, comp := range g.Components() {
		sub, _ := g.Subgraph(comp)
		w := sub.connectedTreewidth()
		if w == -1 {
			return -1
		}
		if w > best {
			best = w
		}
	}
	return best
}

func (g *Graph) connectedTreewidth() int {
	if g.edges == 0 {
		return 0
	}
	if g.edges == g.n-1 {
		return 1 // tree
	}
	if g.widthAtMostTwo() {
		return 2
	}
	if g.n > MaxExactNodes {
		return -1
	}
	// Branch and bound from 3 upward. The greedy min-fill upper bound
	// gives the initial ceiling.
	ub := g.greedyWidth()
	for k := 3; k < ub; k++ {
		if g.widthAtMost(k) {
			return k
		}
	}
	return ub
}

// widthAtMostTwo applies the classic reduction: repeatedly remove nodes of
// degree <= 1 and contract nodes of degree 2 (connecting their neighbors).
// The graph has treewidth <= 2 iff the reduction reaches the empty graph.
func (g *Graph) widthAtMostTwo() bool {
	adj := make([]map[int]bool, g.n)
	alive := make([]bool, g.n)
	var queue []int
	for u := 0; u < g.n; u++ {
		adj[u] = make(map[int]bool, len(g.adj[u]))
		for _, v := range g.adj[u] {
			adj[u][v] = true
		}
		alive[u] = true
		queue = append(queue, u)
	}
	remaining := g.n
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[u] || len(adj[u]) > 2 {
			continue
		}
		switch len(adj[u]) {
		case 0, 1:
			for v := range adj[u] {
				delete(adj[v], u)
				queue = append(queue, v)
			}
		case 2:
			var nb [2]int
			i := 0
			for v := range adj[u] {
				nb[i] = v
				i++
			}
			delete(adj[nb[0]], u)
			delete(adj[nb[1]], u)
			if !adj[nb[0]][nb[1]] {
				adj[nb[0]][nb[1]] = true
				adj[nb[1]][nb[0]] = true
			}
			queue = append(queue, nb[0], nb[1])
		}
		alive[u] = false
		remaining--
	}
	return remaining == 0
}

// greedyWidth runs the min-fill elimination heuristic and returns the
// resulting width, an upper bound on treewidth.
func (g *Graph) greedyWidth() int {
	adj := cloneAdj(g)
	alive := make([]bool, g.n)
	for i := range alive {
		alive[i] = true
	}
	width := 0
	for remaining := g.n; remaining > 0; remaining-- {
		// Pick the alive node adding fewest fill edges; break ties by
		// smallest degree.
		best, bestFill, bestDeg := -1, 1<<30, 1<<30
		for u := 0; u < g.n; u++ {
			if !alive[u] {
				continue
			}
			fill := fillCount(adj, u)
			d := len(adj[u])
			if fill < bestFill || (fill == bestFill && d < bestDeg) {
				best, bestFill, bestDeg = u, fill, d
			}
		}
		if d := len(adj[best]); d > width {
			width = d
		}
		eliminate(adj, best)
		alive[best] = false
	}
	return width
}

// widthAtMost performs a depth-first search over elimination orderings,
// checking whether some ordering never eliminates a node of degree > k.
// Memoization on the set of eliminated nodes keeps it feasible for the
// tiny graphs that reach this path (<= MaxExactNodes nodes).
func (g *Graph) widthAtMost(k int) bool {
	if g.n > 64 {
		return false
	}
	memo := make(map[uint64]bool)
	adj := cloneAdj(g)
	var rec func(eliminated uint64, remaining int) bool
	rec = func(eliminated uint64, remaining int) bool {
		if remaining == 0 {
			return true
		}
		if done, ok := memo[eliminated]; ok {
			return done
		}
		result := false
		for u := 0; u < g.n && !result; u++ {
			if eliminated&(1<<uint(u)) != 0 {
				continue
			}
			if len(adj[u]) > k {
				continue
			}
			removed := eliminateReversible(adj, u)
			if rec(eliminated|1<<uint(u), remaining-1) {
				result = true
			}
			restore(adj, u, removed)
			if result {
				break
			}
		}
		memo[eliminated] = result
		return result
	}
	return rec(0, g.n)
}

func cloneAdj(g *Graph) []map[int]bool {
	adj := make([]map[int]bool, g.n)
	for u := 0; u < g.n; u++ {
		adj[u] = make(map[int]bool, len(g.adj[u]))
		for _, v := range g.adj[u] {
			adj[u][v] = true
		}
	}
	return adj
}

func fillCount(adj []map[int]bool, u int) int {
	nbs := make([]int, 0, len(adj[u]))
	for v := range adj[u] {
		nbs = append(nbs, v)
	}
	fill := 0
	for i := 0; i < len(nbs); i++ {
		for j := i + 1; j < len(nbs); j++ {
			if !adj[nbs[i]][nbs[j]] {
				fill++
			}
		}
	}
	return fill
}

// eliminate removes u, connecting its neighborhood into a clique.
func eliminate(adj []map[int]bool, u int) {
	nbs := make([]int, 0, len(adj[u]))
	for v := range adj[u] {
		nbs = append(nbs, v)
	}
	for _, v := range nbs {
		delete(adj[v], u)
	}
	for i := 0; i < len(nbs); i++ {
		for j := i + 1; j < len(nbs); j++ {
			adj[nbs[i]][nbs[j]] = true
			adj[nbs[j]][nbs[i]] = true
		}
	}
	adj[u] = make(map[int]bool)
}

type removedState struct {
	neighbors []int
	fillAdded [][2]int
}

// eliminateReversible eliminates u but records enough state to undo.
func eliminateReversible(adj []map[int]bool, u int) removedState {
	var st removedState
	for v := range adj[u] {
		st.neighbors = append(st.neighbors, v)
	}
	for _, v := range st.neighbors {
		delete(adj[v], u)
	}
	for i := 0; i < len(st.neighbors); i++ {
		for j := i + 1; j < len(st.neighbors); j++ {
			a, b := st.neighbors[i], st.neighbors[j]
			if !adj[a][b] {
				adj[a][b] = true
				adj[b][a] = true
				st.fillAdded = append(st.fillAdded, [2]int{a, b})
			}
		}
	}
	adj[u] = make(map[int]bool)
	return st
}

// restore undoes eliminateReversible.
func restore(adj []map[int]bool, u int, st removedState) {
	for _, e := range st.fillAdded {
		delete(adj[e[0]], e[1])
		delete(adj[e[1]], e[0])
	}
	adj[u] = make(map[int]bool, len(st.neighbors))
	for _, v := range st.neighbors {
		adj[u][v] = true
		adj[v][u] = true
	}
}
