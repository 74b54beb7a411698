package service

import (
	"context"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// Executor is the single-query serving entry over one immutable
// snapshot: the same per-query deadline conventions and result cache
// option (Limits.Results) as the batch pool (RunQueries), shaped for an
// HTTP handler that executes one query per request and needs the full
// result back for serialization. An Executor is immutable after
// construction and safe for concurrent use.
type Executor struct {
	sn    *rdf.Snapshot
	lim   eval.Limits
	tmout time.Duration
}

// ExecutorOptions configures NewExecutor. The zero value serves with no
// result cache, no deadline, and default row limits.
type ExecutorOptions struct {
	// Timeout is the per-query deadline; 0 means only the request
	// context bounds the query.
	Timeout time.Duration
	// Limits bounds each evaluation. Limits.Results shares one
	// snapshot-keyed query result cache across all requests (qcache.New
	// for the snapshot): repeats skip execution, concurrent identical
	// queries collapse onto one.
	Limits eval.Limits
	// Deprecated: Plans and Paths are ignored: every query plans and
	// compiles its own. They remain only because the benchmark module
	// (bench/) still sets them; ROADMAP item 1(c) deletes them.
	Plans *plan.Cache
	Paths *pathcomp.Cache
	// Deprecated: MaxConcurrent is ignored: a query runs on the
	// goroutine that asked for it, so there is no per-query worker
	// budget to size. It remains only because the benchmark module
	// (bench/) still sets it; ROADMAP item 1(c) deletes it.
	MaxConcurrent int
}

// NewExecutor returns a serving executor over the snapshot.
func NewExecutor(sn *rdf.Snapshot, opt ExecutorOptions) *Executor {
	return &Executor{sn: sn, lim: opt.Limits, tmout: opt.Timeout}
}

// Snapshot returns the served snapshot.
func (e *Executor) Snapshot() *rdf.Snapshot { return e.sn }

// Timeout returns the per-query deadline (0 = none).
func (e *Executor) Timeout() time.Duration { return e.tmout }

// Execute evaluates one query under ctx plus the executor's per-query
// deadline. The outcome carries duration, timeout and recovery
// accounting exactly as the batch pool reports them; res is nil when
// the outcome holds an error.
func (e *Executor) Execute(ctx context.Context, q *sparql.Query) (*eval.Result, QueryOutcome) {
	return executeOne(ctx, e.sn, q, e.lim, e.tmout)
}
