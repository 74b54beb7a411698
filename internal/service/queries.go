package service

import (
	"context"
	"errors"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/lint"
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
	// Limits are the per-query evaluation bounds (MaxRows).
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
}

// QueryReport is the outcome of one SPARQL workload run.
type QueryReport struct {
	Outcomes []QueryOutcome
	// Wall is the end-to-end wall-clock time.
	Wall time.Duration
	// Timeouts counts queries that hit the deadline or cancellation.
	Timeouts int
	Stats    LatencyStats
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
// only worker pool in the repository. Cancelling ctx stops the run;
// undispatched queries are marked timed out.
func RunQueries(ctx context.Context, sn *rdf.Snapshot, queries []*sparql.Query, opt QueryOptions) QueryReport {
	workers := poolSize(opt.Workers, len(queries))
	rep := QueryReport{Outcomes: make([]QueryOutcome, len(queries))}
	start := time.Now()
	dispatched := runPool(ctx, workers, len(queries), func(i int) {
		rep.Outcomes[i] = runOneQuery(ctx, sn, queries[i], opt.Limits, opt.Timeout)
	})
	rep.Wall = time.Since(start)
	for i := dispatched; i < len(queries); i++ {
		rep.Outcomes[i] = QueryOutcome{Err: exec.ErrTimeout, TimedOut: true}
	}
	rep.Timeouts, rep.Stats = summarize(len(queries), rep.Wall, func(i int) (bool, time.Duration) {
		return rep.Outcomes[i].TimedOut, rep.Outcomes[i].Duration
	})
	return rep
}

// runOneQuery evaluates a single query under a per-query deadline,
// normalizing timed-out durations to the full budget (the Figure 3
// convention).
func runOneQuery(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim eval.Limits, timeout time.Duration) QueryOutcome {
	_, out := executeOne(ctx, sn, q, nil, lim, timeout)
	return out
}

// executeOne is runOneQuery keeping the full result: the single-query
// entry the serving layer (Executor.Execute) serializes from, with the
// same deadline and duration conventions as the batch pool. The result
// carries the columnar Answer only (eval.QueryAnswer): counting rows
// and serving them never materializes strings. lr is q's lint result
// when the caller has one, else nil.
func executeOne(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lr *lint.Result, lim eval.Limits, timeout time.Duration) (*eval.Result, QueryOutcome) {
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
	res, err := eval.QueryAnswer(qctx, sn, q, lr, lim)
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
	if q.Type == sparql.AskQuery && res.Bool {
		out.Rows = 1
	}
	return res, out
}
