package service

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
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
// layer: with two worker pools — one under a per-query deadline, one
// without — querying ONE shared snapshot concurrently (>= 8 queries in
// flight), every per-query answer and timeout flag must be
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
		{Workers: 4},
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
