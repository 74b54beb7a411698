package service

import (
	"context"
	"errors"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// QueryOptions configures a SPARQL workload run.
type QueryOptions struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// Timeout is the per-query deadline; 0 means none beyond the
	// parent context.
	Timeout time.Duration
	// Plans optionally shares one shape-keyed plan cache across the
	// pool (built with plan.NewCache for the snapshot passed to
	// RunQueries): each BGP shape is planned once, and the cached plan
	// carries slot assignments, so repeats execute with no
	// re-resolution. Nil plans per query.
	Plans *plan.Cache
	// Paths optionally shares one compiled-path cache across the pool
	// (pathcomp.NewCache for the same snapshot): each property-path
	// shape compiles to its automaton once.
	Paths *pathcomp.Cache
	// Results optionally shares one snapshot-keyed query result cache
	// across the pool (qcache.New for the same snapshot): repeated
	// queries — the paper's dominant workload pattern — skip execution
	// entirely, and concurrent identical queries collapse onto one
	// execution.
	Results *qcache.Cache
	// Limits are the per-query evaluation bounds (MaxRows etc.); the
	// Plans/Paths fields above override the ones inside.
	Limits eval.Limits
}

// QueryOutcome is one query's result summary, index-aligned with the
// input workload.
type QueryOutcome struct {
	// Rows is the number of result rows (1/0 for ASK).
	Rows int
	// Bool is the ASK answer.
	Bool bool
	// Err is the evaluation error, if any (timeouts also set TimedOut).
	Err error
	// TimedOut marks deadline or cancellation.
	TimedOut bool
	Duration time.Duration
	// Recovered counts silent SERVICE recoveries inside the query (see
	// eval.Result.Recovered): nonzero means part of the answer came
	// from no-op federation rather than an evaluated SERVICE body.
	Recovered int
	// Cached marks an answer served from the shared result cache
	// without executing; Collapsed marks one received from a concurrent
	// identical execution (single-flight). Both false: evaluated here.
	Cached    bool
	Collapsed bool
}

// QueryReport is the outcome of one SPARQL workload run.
type QueryReport struct {
	Outcomes []QueryOutcome
	// Wall is the end-to-end wall-clock time.
	Wall time.Duration
	// Timeouts counts queries that hit the deadline or cancellation.
	Timeouts int
	Stats    LatencyStats
	// PlanHits/PlanMisses and PathHits/PathMisses are this run's
	// deltas on the shared caches (zero when the option was nil).
	PlanHits, PlanMisses int64
	PathHits, PathMisses int64
	// CacheHits/CacheMisses/CacheCollapsed are this run's deltas on the
	// shared result cache: answers served without executing, lookups
	// that executed, and executions avoided by single-flight collapse
	// (zero when Results was nil).
	CacheHits, CacheMisses, CacheCollapsed int64
}

// TotalRows sums result rows across completed queries.
func (r *QueryReport) TotalRows() int64 {
	var n int64
	for _, o := range r.Outcomes {
		if o.Err == nil {
			n += int64(o.Rows)
		}
	}
	return n
}

// RunQueries executes a SPARQL workload on a worker pool sharing one
// immutable snapshot, on the slot-based columnar executor. It is the
// only worker pool in the repository. With Plans and Paths set, the
// pool shares one plan cache and one compiled-path cache, so a
// workload of recurring shapes (the log study's core finding) plans
// and compiles each shape once and executes it millions of times.
// Cancelling ctx stops the run; undispatched queries are marked timed
// out.
func RunQueries(ctx context.Context, sn *rdf.Snapshot, queries []*sparql.Query, opt QueryOptions) QueryReport {
	workers := poolSize(opt.Workers, len(queries))
	lim := opt.Limits
	lim.Plans, lim.Paths, lim.Results = opt.Plans, opt.Paths, opt.Results
	var planHits0, planMisses0, pathHits0, pathMisses0 int64
	if opt.Plans != nil {
		planHits0, planMisses0 = opt.Plans.Hits(), opt.Plans.Misses()
	}
	if opt.Paths != nil {
		pathHits0, pathMisses0 = opt.Paths.Hits(), opt.Paths.Misses()
	}
	var cacheHits0, cacheMisses0, cacheCollapsed0 int64
	if opt.Results != nil {
		cacheHits0, cacheMisses0, cacheCollapsed0 = opt.Results.Hits(), opt.Results.Misses(), opt.Results.Collapsed()
	}
	rep := QueryReport{Outcomes: make([]QueryOutcome, len(queries))}
	start := time.Now()
	dispatched := runPool(ctx, workers, len(queries), func(i int) {
		rep.Outcomes[i] = runOneQuery(ctx, sn, queries[i], lim, opt.Timeout)
	})
	rep.Wall = time.Since(start)
	for i := dispatched; i < len(queries); i++ {
		rep.Outcomes[i] = QueryOutcome{Err: exec.ErrTimeout, TimedOut: true}
	}
	rep.Timeouts, rep.Stats = summarize(len(queries), rep.Wall, func(i int) (bool, time.Duration) {
		return rep.Outcomes[i].TimedOut, rep.Outcomes[i].Duration
	})
	if opt.Plans != nil {
		rep.PlanHits = opt.Plans.Hits() - planHits0
		rep.PlanMisses = opt.Plans.Misses() - planMisses0
	}
	if opt.Paths != nil {
		rep.PathHits = opt.Paths.Hits() - pathHits0
		rep.PathMisses = opt.Paths.Misses() - pathMisses0
	}
	if opt.Results != nil {
		rep.CacheHits = opt.Results.Hits() - cacheHits0
		rep.CacheMisses = opt.Results.Misses() - cacheMisses0
		rep.CacheCollapsed = opt.Results.Collapsed() - cacheCollapsed0
	}
	return rep
}

// runOneQuery evaluates a single query under a per-query deadline,
// normalizing timed-out durations to the full budget (the Figure 3
// convention).
func runOneQuery(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim eval.Limits, timeout time.Duration) QueryOutcome {
	_, out := executeOne(ctx, sn, q, lim, timeout)
	return out
}

// executeOne is runOneQuery keeping the full result: the single-query
// entry the serving layer (Executor.Execute) serializes from, with the
// same deadline and duration conventions as the batch pool. The result
// carries the columnar Answer only (eval.QueryAnswer): counting rows
// and serving them never materializes strings.
func executeOne(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim eval.Limits, timeout time.Duration) (*eval.Result, QueryOutcome) {
	qctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if qctx.Err() != nil {
		out := QueryOutcome{Err: exec.ErrTimeout, TimedOut: true}
		if timeout > 0 && ctx.Err() == nil {
			// Deadline, not parent cancellation: charge the full
			// budget, the Figure 3 convention.
			out.Duration = timeout
		}
		return nil, out
	}
	start := time.Now()
	res, err := eval.QueryAnswer(qctx, sn, q, lim)
	out := QueryOutcome{Duration: time.Since(start), Err: err}
	if err != nil {
		if errors.Is(err, exec.ErrTimeout) {
			out.TimedOut = true
			if timeout > 0 && ctx.Err() == nil {
				out.Duration = timeout
			}
		}
		return nil, out
	}
	out.Rows = res.Answer.Len()
	out.Bool = res.Bool
	out.Recovered = res.Recovered
	out.Cached = res.Cached
	out.Collapsed = res.Collapsed
	if q.Type == sparql.AskQuery && res.Bool {
		out.Rows = 1
	}
	return res, out
}
