// Package service is the concurrent query-serving layer over the
// engines: a worker pool executes a workload of conjunctive queries
// against one immutable rdf.Snapshot, with a context-derived per-query
// deadline, and reports both per-query results (index-aligned with the
// input, identical to serial execution) and aggregate latency statistics
// (QPS, p50/p95/p99). The snapshot is never mutated, so any number of
// Run calls — even for different engines — may share one snapshot
// concurrently; this is the serving shape the ROADMAP's
// heavy-traffic north star asks for, and the shape the paper's
// Section 5.1 experiment implies when racing two engines over the same
// store. With Options.Plans set, the whole pool shares one
// shape-keyed plan cache, so a workload of recurring query shapes (the
// paper's log-study finding) is planned once and executed millions of
// times.
package service

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"sparqlog/internal/engine"
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
)

// Options configures a workload run.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// Timeout is the per-query deadline; 0 means no per-query deadline
	// (the run still honors the parent context).
	Timeout time.Duration
	// Plans, when set, is the shared plan cache the whole worker pool
	// consults: each query shape is planned once and every worker reuses
	// the cached order. Build it with plan.NewCache(snapshot) for the
	// snapshot passed to Run. Engines that do not plan ignore it.
	Plans *plan.Cache
}

// LatencyStats summarizes per-query latencies of one run.
type LatencyStats struct {
	// QPS is completed queries per second of wall-clock time.
	QPS float64
	// P50, P95, P99 and Max are latency percentiles; timed-out queries
	// contribute the full per-query timeout, as in Figure 3.
	P50, P95, P99, Max time.Duration
}

// Report is the outcome of one workload run.
type Report struct {
	Engine string
	// Results holds one engine result per input query, index-aligned:
	// Results[i] answers queries[i] regardless of execution order.
	Results []engine.Result
	// Wall is the end-to-end wall-clock time of the run.
	Wall time.Duration
	// Timeouts counts queries that hit the deadline or cancellation.
	Timeouts int
	Stats    LatencyStats
	// PlanHits and PlanMisses are this run's deltas on the shared plan
	// cache (zero when Options.Plans was nil).
	PlanHits, PlanMisses int64
}

// TotalResults sums bindings across completed queries.
func (r *Report) TotalResults() int64 {
	var n int64
	for _, res := range r.Results {
		if !res.TimedOut {
			n += res.Count
		}
	}
	return n
}

// Run executes the workload on a pool of Options.Workers goroutines, all
// reading the shared snapshot. Cancelling ctx stops the run: in-flight
// queries abort via their per-query context and undispatched queries are
// marked timed out.
func Run(ctx context.Context, e engine.Engine, sn *rdf.Snapshot, queries []engine.CQ, opt Options) Report {
	var hits0, misses0 int64
	if opt.Plans != nil {
		hits0, misses0 = opt.Plans.Hits(), opt.Plans.Misses()
		e = withPlans(e, opt.Plans)
	}
	rep := Report{Engine: e.Name(), Results: make([]engine.Result, len(queries))}
	start := time.Now()
	dispatched := runPool(ctx, poolSize(opt.Workers, len(queries)), len(queries), func(i int) {
		rep.Results[i] = runOne(ctx, e, sn, queries[i], opt.Timeout)
	})
	rep.Wall = time.Since(start)
	for i := dispatched; i < len(queries); i++ {
		rep.Results[i] = engine.Result{TimedOut: true}
	}
	rep.Timeouts, rep.Stats = summarize(len(queries), rep.Wall, func(i int) (bool, time.Duration) {
		return rep.Results[i].TimedOut, rep.Results[i].Duration
	})
	if opt.Plans != nil {
		rep.PlanHits = opt.Plans.Hits() - hits0
		rep.PlanMisses = opt.Plans.Misses() - misses0
	}
	return rep
}

// poolSize resolves a requested worker count for a workload of n
// queries: 0 means GOMAXPROCS, and a pool never outnumbers its work.
func poolSize(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > n && n > 0 {
		requested = n
	}
	return requested
}

// runPool calls run(i) for i in [0, n) on a pool of workers goroutines
// and waits for them. Cancelling ctx stops dispatch; the return value is
// the number of indexes handed to the pool, so [dispatched, n) never ran
// and is the caller's to mark timed out. Distinct indexes run
// concurrently: run must only write state private to its index.
func runPool(ctx context.Context, workers, n int, run func(i int)) (dispatched int) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	// Cancellation is checked before every send: when both select cases
	// are ready Go picks randomly, which could keep dispatching after
	// cancellation.
	for dispatched < n && ctx.Err() == nil {
		select {
		case jobs <- dispatched:
			dispatched++
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
	return dispatched
}

// summarize counts the timed-out queries of a finished run of n queries
// and computes its latency statistics; sample returns query i's
// timed-out flag and duration.
func summarize(n int, wall time.Duration, sample func(i int) (timedOut bool, d time.Duration)) (timeouts int, stats LatencyStats) {
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		timedOut, d := sample(i)
		if timedOut {
			timeouts++
			if d == 0 {
				// Undispatched or pre-start cancellation: the query never
				// ran, so a zero-duration sample would drag the percentiles
				// toward zero exactly when the pool is overloaded. Queries
				// that hit their own deadline carry the full budget
				// (Figure 3) and stay in the sample.
				continue
			}
		}
		durs = append(durs, d)
	}
	stats = Percentiles(durs)
	if wall > 0 {
		stats.QPS = float64(n-timeouts) / wall.Seconds()
	}
	return timeouts, stats
}

// withPlans returns a copy of the engine wired to the shared plan cache,
// leaving the caller's engine untouched (engines may be shared across
// concurrent Run calls with different caches).
func withPlans(e engine.Engine, plans *plan.Cache) engine.Engine {
	switch ge := e.(type) {
	case *engine.GraphEngine:
		cp := *ge
		cp.Plans = plans
		return &cp
	case *engine.RelationalEngine:
		cp := *ge
		cp.Plans = plans
		return &cp
	}
	return e
}

// runOne executes a single query under a per-query deadline derived from
// the run context, normalizing timed-out durations to the full timeout
// (the convention WorkloadStats and Figure 3 use).
func runOne(ctx context.Context, e engine.Engine, sn *rdf.Snapshot, q engine.CQ, timeout time.Duration) engine.Result {
	qctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if qctx.Err() != nil {
		// Cancelled before the query started (the engines only poll the
		// context every ~1k steps, so a short query could otherwise
		// complete under a dead context). With the parent alive it is
		// the query's own deadline that passed (the goroutine was
		// descheduled for longer than the budget): like any deadline
		// hit, it carries the full budget.
		res := engine.Result{TimedOut: true}
		if ctx.Err() == nil {
			res.Duration = timeout
		}
		return res
	}
	res := e.ExecuteContext(qctx, sn, q)
	if res.TimedOut && timeout > 0 && res.Duration > timeout {
		res.Duration = timeout
	}
	if res.TimedOut && timeout > 0 && ctx.Err() == nil {
		// Deadline (not parent cancellation): report the full budget.
		res.Duration = timeout
	}
	return res
}

// Percentiles computes latency percentiles over a sample of durations.
func Percentiles(durs []time.Duration) LatencyStats {
	if len(durs) == 0 {
		return LatencyStats{}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return LatencyStats{
		P50: at(0.50),
		P95: at(0.95),
		P99: at(0.99),
		Max: sorted[len(sorted)-1],
	}
}
