package service

import (
	"context"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// Executor is the single-query serving entry over one immutable
// snapshot: the same per-query deadline conventions and shared
// plan/path caches as the batch pool (RunQueries), shaped for an HTTP
// handler that executes one query per request and needs the full
// result back for serialization. An Executor is immutable after
// construction and safe for concurrent use.
type Executor struct {
	sn    *rdf.Snapshot
	lim   eval.Limits
	tmout time.Duration
}

// ExecutorOptions configures NewExecutor. The zero value serves with
// per-request caches, no deadline, and default row limits.
type ExecutorOptions struct {
	// Timeout is the per-query deadline; 0 means only the request
	// context bounds the query.
	Timeout time.Duration
	// Plans optionally shares one shape-keyed plan cache across all
	// requests (plan.NewCache for the snapshot).
	Plans *plan.Cache
	// Paths optionally shares one compiled-path cache across all
	// requests (pathcomp.NewCache for the snapshot).
	Paths *pathcomp.Cache
	// Results optionally shares one snapshot-keyed query result cache
	// across all requests (qcache.New for the snapshot): repeats skip
	// execution, concurrent identical queries collapse onto one.
	Results *qcache.Cache
	// Limits bounds each evaluation; the Plans/Paths fields above
	// override the ones inside.
	Limits eval.Limits
	// Deprecated: MaxConcurrent is ignored: a query runs on the
	// goroutine that asked for it, so there is no per-query worker
	// budget to size. It remains only because the benchmark module
	// (bench/) still sets it; ROADMAP item 1(c) deletes it.
	MaxConcurrent int
}

// NewExecutor returns a serving executor over the snapshot.
func NewExecutor(sn *rdf.Snapshot, opt ExecutorOptions) *Executor {
	lim := opt.Limits
	lim.Plans, lim.Paths, lim.Results = opt.Plans, opt.Paths, opt.Results
	return &Executor{sn: sn, lim: lim, tmout: opt.Timeout}
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
