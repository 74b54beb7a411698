// Columnar-executor benchmarks: the slot-based batch pipeline
// (internal/exec, the eval default) on the log study's dominant
// conjunctive shapes — chain, star, cycle — under the solution
// modifiers real traffic hammers (DISTINCT, LIMIT). All cells run in
// CI's bench-artifacts job.
package sparqlog

import (
	"fmt"
	"testing"

	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// execBatchSources builds the shape × modifier matrix over the shared
// gMark Bib graph.
func execBatchSources(g *gmark.Graph) map[string]string {
	journals := g.Nodes[gmark.Journal]
	jname := g.Snapshot.TermOf(journals[1])
	return map[string]string{
		// Selective chain: journal-anchored citation chain, projected
		// DISTINCT on the far end — the dedup-dominated shape.
		"chain/distinct": fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
			SELECT DISTINCT ?p3 WHERE {
				?p1 bib:publishedIn <%s> .
				?p1 bib:cites ?p2 .
				?p2 bib:cites ?p3 .
			}`, jname),
		"chain/limit": `PREFIX bib: <http://gmark.bib/p/>
			SELECT ?p1 ?p3 WHERE {
				?p1 bib:cites ?p2 .
				?p2 bib:cites ?p3 .
				?p3 bib:publishedIn ?j .
			} LIMIT 50`,
		// Star: all facts around citing papers, deduplicated authors.
		"star/distinct": `PREFIX bib: <http://gmark.bib/p/>
			SELECT DISTINCT ?r WHERE {
				?p bib:cites ?q .
				?p bib:authoredBy ?r .
				?p bib:publishedIn ?j .
			}`,
		"star/limit": `PREFIX bib: <http://gmark.bib/p/>
			SELECT ?p ?r ?j WHERE {
				?p bib:cites ?q .
				?p bib:authoredBy ?r .
				?p bib:publishedIn ?j .
			} LIMIT 100`,
		// Cycle: mutual citation, distinct pairs.
		"cycle/distinct": `PREFIX bib: <http://gmark.bib/p/>
			SELECT DISTINCT ?a ?b WHERE {
				?a bib:cites ?b .
				?b bib:cites ?a .
			}`,
	}
}

// BenchmarkExecBatch is the shape × modifier matrix.
func BenchmarkExecBatch(b *testing.B) {
	g := plannerBenchGraph(b)
	runExecMatrix(b, g, []string{"chain/distinct", "chain/limit", "star/distinct", "star/limit", "cycle/distinct"}, execBatchSources(g))
}

// runExecMatrix runs each named query as the cell "<name>/columnar".
func runExecMatrix(b *testing.B, g *gmark.Graph, names []string, srcs map[string]string) {
	b.Helper()
	for _, name := range names {
		q, err := sparql.Parse(srcs[name])
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(name+"/columnar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Query(g.Snapshot, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecAggregate is the GROUP BY matrix: the streaming hash
// GroupBy over ID tuples.
func BenchmarkExecAggregate(b *testing.B) {
	g := plannerBenchGraph(b)
	runExecMatrix(b, g, []string{"groupcount", "grouphaving"}, map[string]string{
		// Single-key grouping over a two-atom join: the group key ?j
		// never needs text on the columnar path.
		"groupcount": `PREFIX bib: <http://gmark.bib/p/>
			SELECT (COUNT(*) AS ?n) WHERE {
				?p bib:publishedIn ?j .
				?p bib:cites ?q .
			} GROUP BY ?j`,
		// DISTINCT aggregate + HAVING + ordered emission of the group
		// column: exercises per-group dedup state and the aggregate
		// TopK.
		"grouphaving": `PREFIX bib: <http://gmark.bib/p/>
			SELECT ?j (COUNT(DISTINCT ?a) AS ?n) WHERE {
				?p bib:publishedIn ?j .
				?p bib:authoredBy ?a .
			} GROUP BY ?j HAVING (COUNT(*) > 2) ORDER BY DESC(?n) ?j LIMIT 20`,
	})
}

// BenchmarkExecTopK is the ORDER BY + LIMIT matrix: bounded-heap
// selection.
func BenchmarkExecTopK(b *testing.B) {
	g := plannerBenchGraph(b)
	runExecMatrix(b, g, []string{"orderlimit", "orderoffset"}, map[string]string{
		// Two-key top-25 over the citation join.
		"orderlimit": `PREFIX bib: <http://gmark.bib/p/>
			SELECT ?p ?j WHERE {
				?p bib:cites ?q .
				?p bib:publishedIn ?j .
			} ORDER BY ?j ?p LIMIT 25`,
		// Descending first key with a deep OFFSET: keep = offset+limit.
		"orderoffset": `PREFIX bib: <http://gmark.bib/p/>
			SELECT ?r ?q WHERE {
				?p bib:authoredBy ?r .
				?p bib:cites ?q .
			} ORDER BY DESC(?r) ?q OFFSET 100 LIMIT 50`,
	})
}

// BenchmarkDescribe is DESCRIBE <iri> on the Bib graph at the paper's
// Section 5.1 size (100k nodes), the graph bench/'s serve workloads
// load: a leaf (the newest paper, which nothing cites) and the hub (the
// node with the most edges). The cost should follow the size of the
// answer, not of the store.
func BenchmarkDescribe(b *testing.B) {
	g := gmark.Generate(gmark.Config{Nodes: 100000, Seed: 41})
	sn := g.Snapshot
	papers := g.Nodes[gmark.Paper]
	hub := papers[0]
	for _, nodes := range g.Nodes {
		for _, n := range nodes {
			if sn.SubjectDegree(n)+sn.ObjectDegree(n) > sn.SubjectDegree(hub)+sn.ObjectDegree(hub) {
				hub = n
			}
		}
	}
	for _, c := range []struct {
		name string
		node rdf.ID
	}{{"leaf", papers[len(papers)-1]}, {"hub", hub}} {
		q, err := sparql.Parse("DESCRIBE <" + sn.TermOf(c.node) + ">")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := eval.Query(sn, q)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			if rows == 0 {
				b.Fatal("DESCRIBE returned no triples")
			}
			b.ReportMetric(float64(rows), "triples/op")
		})
	}
}
