package graph

import "slices"

// This file implements the petal/flower classification of Definition 6.1:
// a petal is a pair of nodes s, t joined by at least two node-disjoint
// paths (a cycle is a petal), and a flower is a node x with three kinds of
// attachments: chains (stamens), trees that are not chains (stems), and
// petals. A flower set is a graph in which every connected component is a
// flower.
//
// The test is built on biconnected components: in a flower, every cyclic
// biconnected component must contain the center x and be a "generalized
// theta graph" (two terminals joined by internally node-disjoint paths)
// with x as a terminal. Acyclic attachments are automatically chains or
// stems, so a connected graph is a flower exactly when such a center
// exists. Trees are flowers trivially (pick any node as center).

// biconnectedComponents returns the edge sets of the biconnected components
// as node-set slices (each component's distinct nodes). Self-loops are
// ignored here; callers handle them separately.
func (g *Graph) biconnectedComponents() [][]int {
	type edge struct{ u, v int }
	var comps [][]int
	disc := make([]int, g.n)
	low := make([]int, g.n)
	for i := range disc {
		disc[i] = -1
	}
	var stack []edge
	timer := 0

	inComp := make([]bool, g.n)
	popComponent := func(u, v int) {
		var comp []int
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, x := range [2]int{e.u, e.v} {
				if !inComp[x] {
					inComp[x] = true
					comp = append(comp, x)
				}
			}
			if e.u == u && e.v == v {
				break
			}
		}
		for _, x := range comp {
			inComp[x] = false
		}
		comps = append(comps, comp)
	}

	// Iterative DFS to avoid recursion limits on large star queries.
	type frame struct {
		u, parent int
		idx       int
	}
	for s := 0; s < g.n; s++ {
		if disc[s] != -1 {
			continue
		}
		stackF := []frame{{u: s, parent: -1}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stackF) > 0 {
			f := &stackF[len(stackF)-1]
			if f.idx < len(g.adj[f.u]) {
				v := g.adj[f.u][f.idx]
				f.idx++
				if v == f.parent {
					continue
				}
				if disc[v] == -1 {
					stack = append(stack, edge{f.u, v})
					disc[v] = timer
					low[v] = timer
					timer++
					stackF = append(stackF, frame{u: v, parent: f.u})
				} else if disc[v] < disc[f.u] {
					stack = append(stack, edge{f.u, v})
					if disc[v] < low[f.u] {
						low[f.u] = disc[v]
					}
				}
				continue
			}
			// Finished u; propagate to parent.
			stackF = stackF[:len(stackF)-1]
			if len(stackF) > 0 {
				p := &stackF[len(stackF)-1]
				if low[f.u] < low[p.u] {
					low[p.u] = low[f.u]
				}
				if low[f.u] >= disc[p.u] {
					popComponent(p.u, f.u)
				}
			}
		}
	}
	return comps
}

// petalTerminals examines a biconnected component given by its node set and
// reports whether it is a petal (generalized theta graph or cycle). For
// cycles every node can serve as a terminal, reported by anyTerminal. For
// proper theta graphs the two high-degree terminals are returned.
func (g *Graph) petalTerminals(comp []int) (terminals []int, anyTerminal, ok bool) {
	in := g.members(comp)
	deg := func(u int) int {
		d := 0
		for _, v := range g.adj[u] {
			if in[v] {
				d++
			}
		}
		return d
	}
	var high []int
	for _, u := range comp {
		switch d := deg(u); {
		case d == 2:
		case d > 2:
			high = append(high, u)
		default:
			return nil, false, false // degree <2 cannot occur in a cyclic BCC
		}
	}
	switch len(high) {
	case 0:
		return nil, true, true // cycle: any node is a terminal
	case 2:
		if deg(high[0]) != deg(high[1]) {
			return nil, false, false
		}
		// Biconnected + exactly two branch nodes + all others degree two
		// implies internally node-disjoint s-t paths.
		return high, false, true
	default:
		return nil, false, false
	}
}

// flowerCenters returns the nodes that can be a flower's center, as a
// membership slice with its count: a self-loop is a petal at its own node,
// and each cyclic biconnected component is a petal whose center is one of
// its terminals. ok is false when some cyclic component is not a petal.
func (g *Graph) flowerCenters() (cand []bool, count int, ok bool) {
	cand = make([]bool, g.n)
	for u := range cand {
		cand[u] = true
	}
	count = g.n
	keepOnly := func(allowed []int) {
		in := g.members(allowed)
		for u, c := range cand {
			if c && !in[u] {
				cand[u] = false
				count--
			}
		}
	}
	for u, l := range g.loop {
		if l {
			keepOnly([]int{u})
		}
	}
	for _, comp := range g.biconnectedComponents() {
		if g.componentEdges(comp) <= len(comp)-1 {
			continue
		}
		terms, anyTerm, ok := g.petalTerminals(comp)
		if !ok {
			return nil, 0, false
		}
		if anyTerm {
			terms = comp
		}
		keepOnly(terms)
	}
	return cand, count, true
}

// IsFlower reports whether the graph is a flower (Definition 6.1). The
// graph must be connected and non-empty. Trees are flowers; a cyclic graph
// is a flower when some node x lies in every cyclic biconnected component
// and each such component is a petal with x as a terminal. A self-loop is
// treated as a trivial petal at its node.
func (g *Graph) IsFlower() bool {
	if g.n == 0 || !g.Connected() {
		return false
	}
	if g.IsForest() {
		return true
	}
	_, count, ok := g.flowerCenters()
	return ok && count > 0
}

// IsFlowerSet reports whether every connected component is a flower.
// The empty graph is vacuously a flower set, keeping the Table 4 rows
// cumulative for queries without triples.
func (g *Graph) IsFlowerSet() bool {
	if g.IsForest() {
		return true
	}
	for _, comp := range g.Components() {
		sub, _ := g.Subgraph(comp)
		if !sub.IsFlower() {
			return false
		}
	}
	return true
}

// FlowerAnatomy describes the decomposition of a flower around its center.
type FlowerAnatomy struct {
	Center  int
	Petals  int // cyclic attachments (incl. self-loops)
	Stamens int // chain attachments
	Stems   int // tree (non-chain) attachments
}

// Anatomy decomposes a connected flower around the given center candidate
// search; it returns the anatomy for the best (first valid) center and
// ok=false when the graph is not a flower.
func (g *Graph) Anatomy() (FlowerAnatomy, bool) {
	if !g.IsFlower() {
		return FlowerAnatomy{}, false
	}
	center := g.flowerCenter()
	a := FlowerAnatomy{Center: center}
	if g.loop[center] {
		a.Petals++
	}
	// Remove center; classify each remaining component by how it hangs off.
	rest := make([]int, 0, g.n-1)
	for u := range g.n {
		if u != center {
			rest = append(rest, u)
		}
	}
	sub, orig := g.Subgraph(rest)
	linked := g.members(g.adj[center])
	for _, comp := range sub.Components() {
		// Count edges from the center into this component.
		links := 0
		for _, u := range comp {
			if linked[orig[u]] {
				links++
			}
		}
		csub, _ := sub.Subgraph(comp)
		switch {
		case links >= 2:
			a.Petals++
		case csub.IsChain() || csub.n == 1:
			a.Stamens++
		default:
			a.Stems++
		}
	}
	return a, true
}

// flowerCenter returns a valid flower center: the smallest candidate of a
// cyclic flower, or a maximum-degree node of a tree.
func (g *Graph) flowerCenter() int {
	if !g.IsForest() {
		cand, _, _ := g.flowerCenters()
		return slices.Index(cand, true)
	}
	best, bestDeg := 0, -1
	for u, nb := range g.adj {
		if len(nb) > bestDeg {
			best, bestDeg = u, len(nb)
		}
	}
	return best
}
