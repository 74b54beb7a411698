// Package service is the concurrent query-serving layer: RunQueries
// evaluates a SPARQL workload on one worker pool against one immutable
// rdf.Snapshot, with a context-derived per-query deadline, and reports
// per-query outcomes (index-aligned with the input, identical to serial
// evaluation) and aggregate latency statistics (QPS, p50/p95/p99);
// Executor is the single-query entry sparqld serves each request
// through. The snapshot is never mutated, so any number of workloads and
// requests may share it concurrently. Every query plans and compiles its
// own; the one cache the pool and the Executor can share is the result
// cache, set in eval.Limits.Results, which absorbs the repeated queries
// the paper's log study finds.
package service

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"
)

// LatencyStats summarizes per-query latencies of one run.
type LatencyStats struct {
	// QPS is completed queries per second of wall-clock time.
	QPS float64
	// P50, P95, P99 and Max are latency percentiles; timed-out queries
	// contribute the full per-query timeout, as in Figure 3.
	P50, P95, P99, Max time.Duration
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
