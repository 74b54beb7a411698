package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/sparql"
)

// sparqlWorkload builds a recurring-shape SPARQL workload over a Bib
// graph: chain selects anchored at rotating journals plus a property
// path, so both the plan cache and the path cache see repeats.
func sparqlWorkload(t testing.TB, nodes, count int) (*gmark.Graph, []*sparql.Query) {
	t.Helper()
	g := gmark.Generate(gmark.Config{Nodes: nodes, Seed: 17})
	journals := g.Nodes[gmark.Journal]
	var queries []*sparql.Query
	for i := 0; i < count; i++ {
		j := g.Snapshot.TermOf(journals[i%len(journals)])
		src := fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
			SELECT DISTINCT ?r WHERE {
				?p bib:publishedIn <%s> .
				?p bib:cites ?q .
				?p bib:authoredBy ?r .
			}`, j)
		if i%3 == 2 {
			src = fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
				SELECT ?q WHERE { ?p bib:publishedIn <%s> . ?p bib:cites+ ?q }`, j)
		}
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	return g, queries
}

// TestRunQueriesMatchesSerial: pooled evaluation with shared plan and
// path caches must produce per-query outcomes identical to serial
// uncached evaluation, and the caches must amortize exactly: one plan
// per BGP shape and one automaton per path shape, every other lookup a
// hit, and a second run over the same caches all hits. CI runs it under
// -race, so the pool's concurrent use of both caches is exercised there.
func TestRunQueriesMatchesSerial(t *testing.T) {
	g, queries := sparqlWorkload(t, 1200, 30)
	plans := plan.NewCache(g.Snapshot)
	paths := pathcomp.NewCache(g.Snapshot)
	opt := QueryOptions{Workers: 4, Plans: plans, Paths: paths}
	rep := RunQueries(context.Background(), g.Snapshot, queries, opt)
	for i, q := range queries {
		res, err := eval.Query(g.Snapshot, q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		o := rep.Outcomes[i]
		if o.Err != nil || o.TimedOut {
			t.Fatalf("pooled query %d failed: %+v", i, o)
		}
		if o.Rows != len(res.Rows) {
			t.Fatalf("query %d rows diverge: pooled=%d serial=%d", i, o.Rows, len(res.Rows))
		}
	}
	// The chain selects (two of every three queries) are one BGP shape
	// whatever their journal constant; the path queries plan no run of
	// two triple patterns and share one path shape.
	chains := int64(len(queries) - len(queries)/3)
	paths1 := int64(len(queries) / 3)
	if rep.PlanMisses != 1 || rep.PlanHits != chains-1 {
		t.Errorf("plan hits/misses = %d/%d, want %d/1", rep.PlanHits, rep.PlanMisses, chains-1)
	}
	if rep.PathMisses != 1 || rep.PathHits != paths1-1 {
		t.Errorf("path hits/misses = %d/%d, want %d/1", rep.PathHits, rep.PathMisses, paths1-1)
	}
	if rep.TotalRows() == 0 {
		t.Error("workload produced no rows at all")
	}
	again := RunQueries(context.Background(), g.Snapshot, queries, opt)
	if again.PlanMisses != 0 || again.PlanHits != chains || again.PathMisses != 0 || again.PathHits != paths1 {
		t.Errorf("second run plan %d/%d, path %d/%d hits/misses, want %d/0 and %d/0",
			again.PlanHits, again.PlanMisses, again.PathHits, again.PathMisses, chains, paths1)
	}
	for i := range queries {
		if again.Outcomes[i].Rows != rep.Outcomes[i].Rows {
			t.Fatalf("query %d: cached rerun returned %d rows, first run %d", i, again.Outcomes[i].Rows, rep.Outcomes[i].Rows)
		}
	}
}

// TestRunQueriesCancellation: cancelling the parent context aborts
// in-flight evaluation and marks undispatched queries timed out.
func TestRunQueriesCancellation(t *testing.T) {
	g, queries := sparqlWorkload(t, 2000, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := RunQueries(ctx, g.Snapshot, queries, QueryOptions{Workers: 3})
	if rep.Timeouts != len(queries) {
		t.Fatalf("timeouts = %d, want all %d under a dead context", rep.Timeouts, len(queries))
	}
}

// TestRunQueriesPerQueryDeadline: a per-query timeout far below the
// query's cost times out that query without failing the run.
func TestRunQueriesPerQueryDeadline(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 3000, Seed: 23})
	// A cross-product monster that cannot finish in a microsecond.
	src := `PREFIX bib: <http://gmark.bib/p/>
		SELECT * WHERE { ?a bib:cites ?b . ?c bib:cites ?d . ?e bib:cites ?f }`
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := RunQueries(context.Background(), g.Snapshot, []*sparql.Query{q}, QueryOptions{
		Workers: 1,
		Timeout: time.Microsecond,
		Limits:  eval.Limits{MaxRows: 1 << 30},
	})
	o := rep.Outcomes[0]
	if !o.TimedOut || o.Err == nil {
		t.Fatalf("expected timeout, got %+v", o)
	}
	if o.Duration != time.Microsecond {
		t.Fatalf("timed-out duration = %v, want the full budget", o.Duration)
	}
}
