// Planner benchmarks: the statistics-driven join-ordering win on the
// three dominant workload shapes of the log study (star, chain, cycle),
// the plan cache's amortization, and the evaluator's BGP reordering.
// CI's bench-artifacts job runs them and keeps the numbers; nothing
// compares them to a stored baseline (bench/run.sh's paired runs are
// the performance contract).
package sparqlog

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/engine"
	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/plan"
	"sparqlog/internal/sparql"
)

// plannerBenchGraph is the shared gMark Bib instance for the planner
// benchmarks: large enough that join order dominates, small enough for
// the CI bench sweep.
var (
	plannerGraphOnce sync.Once
	plannerGraph     *gmark.Graph
)

func plannerBenchGraph(tb testing.TB) *gmark.Graph {
	tb.Helper()
	plannerGraphOnce.Do(func() {
		plannerGraph = gmark.Generate(gmark.Config{Nodes: 6000, Seed: 41})
	})
	return plannerGraph
}

// starWorkload builds 3-atom star queries centered on a paper variable,
// written with the selective atom (bound journal object) LAST — the
// adversarial syntactic order from the log study's star shapes.
func starWorkload(g *gmark.Graph, count int) []engine.CQ {
	var cqs []engine.CQ
	journals := g.Nodes[gmark.Journal]
	for i := 0; i < count; i++ {
		j := journals[i%len(journals)]
		cqs = append(cqs, engine.CQ{
			Atoms: []engine.Atom{
				{S: engine.V(0), P: engine.C(g.PredID["cites"]), O: engine.V(1)},
				{S: engine.V(0), P: engine.C(g.PredID["authoredBy"]), O: engine.V(2)},
				{S: engine.V(0), P: engine.C(g.PredID["publishedIn"]), O: engine.C(j)},
			},
			NumVars: 3,
		})
	}
	return cqs
}

// chainWorkload derives counting (non-ASK) chains from the gMark
// generator's ASK chains.
func chainWorkload(g *gmark.Graph, length, count int) []engine.CQ {
	var cqs []engine.CQ
	for _, q := range g.Workload(gmark.Chain, length, count, 9) {
		cq := q.CQ
		cq.Ask = false
		cqs = append(cqs, cq)
	}
	return cqs
}

func cycleWorkload(g *gmark.Graph, length, count int) []engine.CQ {
	var cqs []engine.CQ
	for _, q := range g.Workload(gmark.Cycle, length, count, 9) {
		cqs = append(cqs, q.CQ)
	}
	return cqs
}

// BenchmarkPlannerShapes measures the graph engine (BG), which runs the
// statistics-planned order, on the three dominant conjunctive shapes.
// The planner's effect on the deployed pipeline is BenchmarkEvalJoinOrder
// against its syntactic-order denominator in package eval.
func BenchmarkPlannerShapes(b *testing.B) {
	g := plannerBenchGraph(b)
	shapes := []struct {
		name string
		cqs  []engine.CQ
	}{
		{"star", starWorkload(g, 16)},
		{"chain", chainWorkload(g, 5, 16)},
		{"cycle", cycleWorkload(g, 5, 16)},
	}
	for _, sh := range shapes {
		b.Run(sh.name+"/planned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := engine.RunWorkload(&engine.GraphEngine{}, g.Snapshot, sh.cqs, 30*time.Second)
				if st.Timeouts > 0 {
					b.Fatal("timeout")
				}
			}
			b.ReportMetric(float64(len(sh.cqs)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkPlanCache contrasts a cache hit (shape-key + map lookup) with
// full planning, the overhead the service layer's shared cache removes
// from every query after a shape's first sighting.
func BenchmarkPlanCache(b *testing.B) {
	g := plannerBenchGraph(b)
	cqs := starWorkload(g, 1)
	atoms, numVars := cqs[0].Atoms, cqs[0].NumVars
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.For(g.Snapshot, atoms, numVars)
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		b.ReportAllocs()
		cache := plan.NewCache(g.Snapshot)
		cache.For(g.Snapshot, atoms, numVars)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.For(g.Snapshot, atoms, numVars)
		}
	})
}

// BenchmarkEvalJoinOrder measures full SPARQL evaluation of a chain
// query written selective-last, in the planner's order. The pre-planner
// syntactic order it is compared with is a switch only package eval can
// set: BenchmarkEvalJoinOrderSyntactic there runs the same query on the
// same graph.
func BenchmarkEvalJoinOrder(b *testing.B) {
	g := plannerBenchGraph(b)
	journals := g.Nodes[gmark.Journal]
	jname := g.Snapshot.TermOf(journals[1])
	src := fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
		SELECT ?p1 ?p2 ?r WHERE {
			?p1 bib:cites ?p2 .
			?p2 bib:cites ?p3 .
			?p1 bib:authoredBy ?r .
			?p1 bib:publishedIn <%s> .
		}`, jname)
	q, err := sparql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Query(g.Snapshot, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
