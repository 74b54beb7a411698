package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"sparqlog/internal/analysis"
	"sparqlog/internal/graph"
	"sparqlog/internal/loggen"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

// refFrom copies g into the oracle through the public accessors, which
// TestOracleRandomGraphs checks against the oracle's own AddEdge.
func refFrom(g *graph.Graph) *refGraph {
	r := newRef(g.N())
	for u := range g.N() {
		if g.HasLoop(u) {
			r.AddEdge(u, u)
		}
		for _, v := range g.Neighbors(u) {
			r.AddEdge(u, v)
		}
	}
	return r
}

func refReport(r *refGraph) shapes.Report {
	return shapes.Report{
		SingleEdge: r.IsSingleEdge(),
		Chain:      r.IsChain(),
		ChainSet:   r.IsChainSet(),
		Star:       r.IsStar(),
		Tree:       r.IsTree(),
		Forest:     r.IsForest(),
		Cycle:      r.IsCycle(),
		Flower:     r.IsFlower(),
		FlowerSet:  r.IsFlowerSet(),
		Treewidth:  r.Treewidth(),
		Girth:      r.Girth(),
	}
}

// checkAgainstOracle compares every public answer of g with the oracle's.
func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, r *refGraph) {
	t.Helper()
	if g.N() != r.N() || g.M() != r.M() || g.Loops() != r.Loops() {
		t.Fatalf("%s: N/M/Loops = %d/%d/%d, oracle %d/%d/%d", name, g.N(), g.M(), g.Loops(), r.N(), r.M(), r.Loops())
	}
	for u := range g.N() {
		if g.Degree(u) != r.Degree(u) || g.HasLoop(u) != r.HasLoop(u) || !slices.Equal(g.Neighbors(u), r.Neighbors(u)) {
			t.Fatalf("%s: node %d: neighbours %v loop %v, oracle %v %v", name, u, g.Neighbors(u), g.HasLoop(u), r.Neighbors(u), r.HasLoop(u))
		}
		for v := range g.N() {
			if g.HasEdge(u, v) != r.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, oracle disagrees", name, u, v, g.HasEdge(u, v))
			}
		}
	}
	if got, want := g.Components(), r.Components(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%s: Components = %v, oracle %v", name, got, want)
	}
	if g.Connected() != r.Connected() {
		t.Fatalf("%s: Connected = %v, oracle disagrees", name, g.Connected())
	}
	if got, want := shapes.Classify(g), refReport(r); got != want {
		t.Fatalf("%s: Classify = %+v, oracle %+v", name, got, want)
	}
	ga, gok := g.Anatomy()
	ra, rok := r.Anatomy()
	if ga != ra || gok != rok {
		t.Fatalf("%s: Anatomy = %+v %v, oracle %+v %v", name, ga, gok, ra, rok)
	}
}

// randomGraph applies the same random AddEdge calls to a graph and to the
// oracle: up to 12 nodes in up to three clusters, self-loops, repeated and
// reversed edges, and half of the time a random forest underneath.
func randomGraph(rng *rand.Rand) (*graph.Graph, *refGraph) {
	n := rng.Intn(13)
	g, r := graph.New(n), newRef(n)
	add := func(u, v int) {
		g.AddEdge(u, v)
		r.AddEdge(u, v)
	}
	if n == 0 {
		return g, r
	}
	cluster := make([]int, n)
	k := 1 + rng.Intn(3)
	for u := range cluster {
		cluster[u] = rng.Intn(k)
	}
	if rng.Intn(2) == 0 {
		for u := 1; u < n; u++ {
			if v := rng.Intn(u); cluster[u] == cluster[v] {
				add(u, v)
			}
		}
	}
	for range rng.Intn(n + 2) {
		u, v := rng.Intn(n), rng.Intn(n)
		switch {
		case rng.Intn(6) == 0:
			add(u, u)
		case cluster[u] == cluster[v] || rng.Intn(8) == 0:
			add(u, v)
			if rng.Intn(3) == 0 {
				add(v, u)
			}
		}
	}
	return g, r
}

func TestOracleRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for i := range 4000 {
		g, r := randomGraph(rng)
		checkAgainstOracle(t, "random graph", g, r)
		nodes := rng.Perm(g.N())[:rng.Intn(g.N()+1)]
		slices.Sort(nodes)
		sub, orig := g.Subgraph(nodes)
		rsub, rorig := r.Subgraph(nodes)
		if !slices.Equal(orig, rorig) {
			t.Fatalf("graph %d: Subgraph mapping %v, oracle %v", i, orig, rorig)
		}
		checkAgainstOracle(t, "random subgraph", sub, rsub)
	}
}

// corpusQueries returns the distinct valid queries with triples of the
// loggen corpus at scale 1e-4, seeds 1 and 2017.
func corpusQueries(t *testing.T) []*sparql.Query {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	seen := map[string]bool{}
	var qs []*sparql.Query
	for _, seed := range []int64{1, 2017} {
		for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				seen[e] = true
				if q, err := sparql.Parse(e); err == nil && len(q.Triples()) > 0 {
					qs = append(qs, q)
				}
			}
		}
	}
	return qs
}

func TestOracleCorpusGraphs(t *testing.T) {
	graphs := 0
	for _, q := range corpusQueries(t) {
		triples := q.Triples()
		for _, opts := range []shapes.Options{
			{},
			{ExcludeConstants: true},
			{CollapseEqual: analysis.Scan(q).Collapses},
		} {
			g, _ := shapes.CanonicalGraph(triples, opts)
			checkAgainstOracle(t, sparql.QueryString(q), g, refFrom(g))
			graphs++
		}
	}
	t.Logf("%d canonical graphs agree with the oracle", graphs)
}
