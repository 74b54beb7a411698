package service

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/sparql"
)

// workload parses a mixed chain/cycle gMark workload (ASK queries, the
// Figure 3 shapes) over a small Bib graph.
func workload(t testing.TB, nodes, perShape int) (*gmark.Graph, []*sparql.Query) {
	t.Helper()
	g := gmark.Generate(gmark.Config{Nodes: nodes, Seed: 11})
	gen := append(g.Workload(gmark.Chain, 3, perShape, 5), g.Workload(gmark.Cycle, 3, perShape, 6)...)
	return g, parseAll(t, gen)
}

func parseAll(t testing.TB, gen []gmark.Query) []*sparql.Query {
	t.Helper()
	var queries []*sparql.Query
	for _, q := range gen {
		pq, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, pq)
	}
	return queries
}

// crossProduct is a counted three-way cross product of the citation
// edges: nothing materializes, and it cannot finish in a test's time.
func crossProduct(t testing.TB) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
		SELECT (COUNT(*) AS ?n) WHERE { ?a bib:cites ?b . ?c bib:cites ?d . ?e bib:cites ?f }`)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestParallelMatchesSerial is the correctness contract of the service
// layer: with two worker pools — one planning per query, one sharing plan
// and path caches — querying ONE shared snapshot concurrently (>= 8
// queries in flight), every per-query answer and timeout flag must be
// identical to serial evaluation. Run under -race this is also the
// regression test for the old lazy-Freeze data race: before the snapshot
// split, the first two concurrent executions would race on the store's
// index sort.
func TestParallelMatchesSerial(t *testing.T) {
	g, queries := workload(t, 1500, 6) // 12 queries per pool
	if len(queries) < 8 {
		t.Fatalf("want >= 8 queries, got %d", len(queries))
	}
	timeout := 5 * time.Second

	serial := make([]*eval.Result, len(queries))
	for i, q := range queries {
		res, err := eval.Query(g.Snapshot, q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		serial[i] = res
	}

	opts := []QueryOptions{
		{Workers: 4, Timeout: timeout},
		{Workers: 4, Timeout: timeout, Plans: plan.NewCache(g.Snapshot), Paths: pathcomp.NewCache(g.Snapshot)},
	}
	reports := make([]QueryReport, len(opts))
	var wg sync.WaitGroup
	for pi, opt := range opts {
		wg.Add(1)
		go func(pi int, opt QueryOptions) {
			defer wg.Done()
			reports[pi] = RunQueries(context.Background(), g.Snapshot, queries, opt)
		}(pi, opt)
	}
	wg.Wait()

	for pi, rep := range reports {
		if len(rep.Outcomes) != len(queries) {
			t.Fatalf("pool %d: %d outcomes for %d queries", pi, len(rep.Outcomes), len(queries))
		}
		for qi, o := range rep.Outcomes {
			if o.Err != nil || o.TimedOut {
				t.Fatalf("pool %d query %d failed: %+v", pi, qi, o)
			}
			if o.Bool != serial[qi].Bool {
				t.Errorf("pool %d query %d: parallel ASK = %v, serial = %v", pi, qi, o.Bool, serial[qi].Bool)
			}
		}
		if rep.Stats.P50 < 0 || rep.Stats.P99 < rep.Stats.P50 {
			t.Errorf("pool %d: implausible percentiles %+v", pi, rep.Stats)
		}
		if rep.Timeouts == 0 && rep.Stats.QPS <= 0 {
			t.Errorf("pool %d: QPS = %v, want > 0", pi, rep.Stats.QPS)
		}
	}
}

// TestRunHonorsCancellation verifies that cancelling the parent context
// in the middle of a run stops it: queries in flight abort, the ones
// not yet dispatched are marked, and every outcome is a timeout.
func TestRunHonorsCancellation(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 2000, Seed: 3})
	q := crossProduct(t)
	queries := []*sparql.Query{q, q, q, q, q, q}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rep := RunQueries(ctx, g.Snapshot, queries, QueryOptions{Workers: 2, Limits: eval.Limits{MaxRows: 1 << 30}})
	if rep.Timeouts != len(queries) {
		t.Errorf("timeouts = %d, want %d (all)", rep.Timeouts, len(queries))
	}
	for i, o := range rep.Outcomes {
		if !o.TimedOut || o.Err == nil {
			t.Errorf("query %d: outcome %+v, want a timeout", i, o)
		}
	}
}

// TestRunPerQueryDeadline gives an adversarial cycle workload, with a
// counted cross product in the middle, a tiny per-query budget on a
// multi-worker pool; the run must come back with the cross product and
// every other timeout counted at the full budget, and every other query
// answered.
func TestRunPerQueryDeadline(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 4000, Seed: 3})
	queries := parseAll(t, g.Workload(gmark.Cycle, 6, 6, 9))
	monster := len(queries) / 2
	queries = slices.Insert(queries, monster, crossProduct(t))
	budget := 5 * time.Millisecond
	rep := RunQueries(context.Background(), g.Snapshot, queries, QueryOptions{
		Workers: 2,
		Timeout: budget,
		Limits:  eval.Limits{MaxRows: 1 << 30},
	})
	if o := rep.Outcomes[monster]; !o.TimedOut {
		t.Errorf("cross product finished inside the %v budget: %+v", budget, o)
	}
	for i, o := range rep.Outcomes {
		if o.TimedOut && o.Duration != budget {
			t.Errorf("query %d: timed out with duration %v, want the %v budget", i, o.Duration, budget)
		}
		if !o.TimedOut && o.Err != nil {
			t.Errorf("query %d: failed without timing out: %v", i, o.Err)
		}
	}
}

// TestPlanCacheSharedAcrossWorkers is the plan-cache correctness test:
// a workload alternating between two query *shapes* (star and chain,
// constants varying per query) runs on a concurrent pool sharing one
// plan cache. Exactly two plans may be computed — every other query must
// hit the cache — and every answer must equal serial uncached
// evaluation. The service package's CI race run covers this test, so
// the cache's concurrent access is exercised under -race.
func TestPlanCacheSharedAcrossWorkers(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 1500, Seed: 19})
	journals := g.Nodes[gmark.Journal]
	papers := g.Nodes[gmark.Paper]

	var queries []*sparql.Query
	for i := 0; i < 200; i++ {
		var src string
		if i%2 == 0 {
			// Star shape: varying journal constant.
			src = fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
				SELECT * WHERE { ?x0 bib:cites ?x1 . ?x0 bib:authoredBy ?x2 . ?x0 bib:publishedIn <%s> }`,
				g.Snapshot.TermOf(journals[i%len(journals)]))
		} else {
			// Chain shape: varying start-paper constant.
			src = fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
				SELECT * WHERE { <%s> bib:cites ?x0 . ?x0 bib:cites ?x1 . ?x1 bib:authoredBy ?x2 }`,
				g.Snapshot.TermOf(papers[i%len(papers)]))
		}
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	serial := make([]int, len(queries))
	for i, q := range queries {
		res, err := eval.Query(g.Snapshot, q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		serial[i] = len(res.Rows)
	}

	cache := plan.NewCache(g.Snapshot)
	opt := QueryOptions{Workers: 4, Timeout: 5 * time.Second, Plans: cache}
	rep := RunQueries(context.Background(), g.Snapshot, queries, opt)

	if rep.PlanMisses != 2 {
		t.Errorf("plan misses = %d, want 2 (one per shape)", rep.PlanMisses)
	}
	if want := int64(len(queries) - 2); rep.PlanHits != want {
		t.Errorf("plan hits = %d, want %d", rep.PlanHits, want)
	}
	for i, o := range rep.Outcomes {
		if o.Err != nil || o.Rows != serial[i] {
			t.Fatalf("query %d: cached-parallel = (rows %d, err %v), serial rows %d", i, o.Rows, o.Err, serial[i])
		}
	}
	// A second run over the same cache is all hits.
	rep2 := RunQueries(context.Background(), g.Snapshot, queries, opt)
	if rep2.PlanMisses != 0 || rep2.PlanHits != int64(len(queries)) {
		t.Errorf("second run hits/misses = %d/%d, want %d/0", rep2.PlanHits, rep2.PlanMisses, len(queries))
	}
}

func TestPercentiles(t *testing.T) {
	var durs []time.Duration
	for i := 1; i <= 100; i++ {
		durs = append(durs, time.Duration(i)*time.Millisecond)
	}
	st := Percentiles(durs)
	if st.P50 != 50*time.Millisecond || st.P95 != 95*time.Millisecond ||
		st.P99 != 99*time.Millisecond || st.Max != 100*time.Millisecond {
		t.Errorf("percentiles = %+v", st)
	}
	if got := Percentiles(nil); got != (LatencyStats{}) {
		t.Errorf("empty percentiles = %+v", got)
	}
}
