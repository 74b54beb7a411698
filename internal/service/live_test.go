package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/gmark"
	"sparqlog/internal/sparql"
)

// TestPercentilesExcludeUndispatched pins the latency-sample fix:
// cancelling a run mid-dispatch leaves a pile of undispatched queries
// with zero duration, and those must not enter the percentile sample —
// the reported percentiles describe the queries that actually ran.
// (Run under -race in CI.)
func TestPercentilesExcludeUndispatched(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 3000, Seed: 23})
	// Query 0 is a cross-product monster that runs for seconds unless
	// cancelled; the rest never get dispatched on a one-worker pool.
	heavy, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
		SELECT * WHERE { ?a bib:cites ?b . ?c bib:cites ?d . ?e bib:cites ?f }`)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*sparql.Query{heavy}
	for i := 0; i < 63; i++ {
		q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
			SELECT ?x WHERE { ?x bib:cites ?y }`)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	rep := RunQueries(ctx, g.Snapshot, queries, QueryOptions{
		Workers: 1,
		Limits:  eval.Limits{MaxRows: 1 << 30},
	})
	if rep.Timeouts != len(queries) {
		t.Fatalf("timeouts = %d, want all %d", rep.Timeouts, len(queries))
	}
	if d := rep.Outcomes[0].Duration; d == 0 {
		t.Fatal("the in-flight query recorded no duration (cancel raced ahead of dispatch)")
	}
	// The only latency sample is the cancelled-in-flight query's real
	// duration: with 63 zero-duration undispatched outcomes polluting
	// the sample (the old behaviour), every percentile would be zero.
	if rep.Stats.P50 == 0 || rep.Stats.P95 == 0 || rep.Stats.Max == 0 {
		t.Fatalf("percentiles include undispatched zero samples: %+v", rep.Stats)
	}
}

func TestExecutorExecute(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 800, Seed: 17})
	ex := NewExecutor(g.Snapshot, ExecutorOptions{})
	q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
		SELECT ?x ?y WHERE { ?x bib:cites ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	res, out := ex.Execute(context.Background(), q)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if res == nil || res.Answer.Len() == 0 || out.Rows != res.Answer.Len() || res.Rows != nil {
		t.Fatalf("bad result: res=%v outcome=%+v", res, out)
	}
	if out.Duration <= 0 {
		t.Error("executed query recorded no duration")
	}

	// A dead context surfaces as a timeout with no result.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	res, out = ex.Execute(dead, q)
	if res != nil || !out.TimedOut {
		t.Fatalf("dead context: res=%v outcome=%+v", res, out)
	}
}

func TestLiveSnapshotCounters(t *testing.T) {
	l := NewLive(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				l.Observe(QueryOutcome{Duration: time.Millisecond, Rows: 1})
			}
		}()
	}
	wg.Wait()
	l.Observe(QueryOutcome{Err: exec.ErrTimeout, TimedOut: true, Duration: time.Second})
	l.Observe(QueryOutcome{Err: exec.ErrTimeout, TimedOut: true}) // undispatched: no sample
	l.Observe(QueryOutcome{Err: context.Canceled})
	l.Observe(QueryOutcome{Duration: time.Millisecond, Recovered: 2})
	l.Reject()

	s := l.Snapshot()
	if s.Served != 104 {
		t.Errorf("served = %d, want 104", s.Served)
	}
	if s.Timeouts != 2 || s.Errors != 1 || s.Rejected != 1 || s.Recoveries != 2 {
		t.Errorf("counters: %+v", s)
	}
	if s.Window != 8 {
		t.Errorf("window = %d, want full ring of 8", s.Window)
	}
	if s.QPS <= 0 || s.Stats.P50 <= 0 {
		t.Errorf("rates not computed: %+v", s)
	}

	// The zero-duration undispatched outcome must not sit in the ring:
	// every sample is a real duration.
	if s.Stats.P50 == 0 {
		t.Error("zero-duration sample entered the percentile window")
	}
}
