// Package eval executes parsed SPARQL queries against an rdf.Snapshot: the
// group graph pattern algebra (joins, OPTIONAL, UNION, MINUS, FILTER,
// BIND, VALUES, subqueries, property paths), expression evaluation, and
// the solution modifiers (projection, DISTINCT, ORDER BY, LIMIT/OFFSET,
// GROUP BY with aggregates, HAVING).
//
// Evaluation runs on the slot-based columnar executor (internal/exec):
// the WHERE clause compiles once into an operator tree whose slots are
// the query's variable numbers (sparql.Scope), and solutions flow through it as
// rdf.ID batches, with strings only at the edges (see columnar.go); the
// answer itself is ID columns (exec.Answer), which QueryAnswer returns
// as they are and QueryContext additionally renders as string rows.
// It is the only evaluator: every query shape, aggregates, CONSTRUCT
// and DESCRIBE included, finishes on IDs. The solution modifiers run
// once, as operators on the solution stream, for every query form:
// ORDER BY, the projection's expressions, DISTINCT, then OFFSET/LIMIT,
// which stops the pull once it is met. SELECT * projects the WHERE
// clause's in-scope variables (sparql.Scope), and CONSTRUCT and
// DESCRIBE order and slice solutions, as SPARQL 1.1 §16.2 and §16.4
// specify. The map-binding evaluator the executor replaced lives in
// this package's tests as the reference the differential suites
// compare it with.
//
// The store's dictionary is untyped text, so literals match on their
// lexical form; language tags and datatypes are compared syntactically
// where expressions need them. GRAPH and SERVICE blocks evaluate against
// the same store (it is a single-graph store); a GRAPH variable binds to
// the pseudo-IRI DefaultGraph.
package eval

import (
	"context"
	"regexp"
	"sort"

	"sparqlog/internal/exec"
	"sparqlog/internal/lint"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// DefaultGraph is the pseudo-IRI a GRAPH variable binds to.
const DefaultGraph = "urn:sparqlog:default-graph"

// Unbound marks an unbound variable in result rows. The empty string
// is the unbound marker throughout the evaluator: an expression or
// VALUES term whose lexical form is empty binds nothing (the pool
// interns "" to its Unbound sentinel).
const Unbound = ""

// Result is the outcome of evaluating a query.
type Result struct {
	// Vars is the projection, in order. Empty for ASK.
	Vars []string
	// Rows are the solutions, aligned with Vars; Unbound marks holes.
	// QueryContext and its wrappers fill it (Answer.Rows); QueryAnswer
	// leaves it nil.
	Rows [][]string
	// Bool is the ASK answer.
	Bool bool
	// Answer is the same solutions as the executor computed them: ID
	// columns, immutable once returned, so a serving layer may share it
	// (sparqld's result cache does). Serving layers serialize from it and
	// never need Rows.
	Answer *exec.Answer
	// Recovered counts silent SERVICE recoveries during evaluation:
	// SERVICE SILENT bodies whose failure was swallowed and replaced by
	// the unjoined input. Queries without SERVICE SILENT report zero; a
	// nonzero count means part of the answer came from no-op federation.
	Recovered int
	// Probes counts snapshot index accesses made by the executor during
	// evaluation (joins and compiled-path lookups, subqueries included).
	// A statically short-circuited query — one the linter proved empty
	// before compilation — finishes with zero.
	Probes int64
}

// Limits bounds evaluation. Evaluation consults no cache: each one
// plans its triple-pattern runs and compiles its property paths itself,
// and caching whole results is the serving layer's business
// (internal/server).
type Limits struct {
	// MaxRows caps any intermediate binding set (0 = DefaultMaxRows).
	MaxRows int
	// Deprecated: Parallel is ignored: a query runs on the goroutine
	// that asked for it. It remains only because the benchmark module
	// (bench/) still sets it; ROADMAP item 1(c) deletes it.
	Parallel int
	// Deprecated: Plans and Paths are ignored: every query plans its
	// own triple-pattern runs and compiles its own property paths. They
	// remain only because the benchmark module (bench/) still sets
	// them; ROADMAP item 1(c) deletes them.
	Plans *plan.Cache
	Paths *pathcomp.Cache

	// The switches below turn a default mechanism off. No binary sets
	// them; this package's differential tests and ablation benchmarks do.

	// noReorder keeps basic graph patterns in their syntactic order
	// instead of the cost-based planner's order — the pre-planner
	// behaviour.
	noReorder bool
	// noStatic disables the static-emptiness short circuit: by default
	// a WHERE clause the linter proves empty (internal/lint.EmptyUnder)
	// compiles to an empty source instead of touching the store. The
	// probe-count tests compare against it.
	noStatic bool
}

// DefaultMaxRows bounds intermediate results.
const DefaultMaxRows = 1_000_000

// Query evaluates a parsed query against an immutable store snapshot.
// The snapshot is only read, so concurrent Query calls over one snapshot
// are safe.
func Query(sn *rdf.Snapshot, q *sparql.Query) (*Result, error) {
	return QueryWithLimits(sn, q, Limits{})
}

// QueryWithLimits evaluates with explicit bounds.
func QueryWithLimits(sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	return QueryContext(context.Background(), sn, q, lim)
}

// QueryContext is QueryAnswer plus the row form: Result.Rows holds the
// answer materialized as strings, owned by the caller.
func QueryContext(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	res, err := QueryAnswer(ctx, sn, q, nil, lim)
	if err != nil {
		return nil, err
	}
	res.Rows = res.Answer.Rows(sn)
	return res, nil
}

// QueryAnswer evaluates under the context's deadline and cancellation,
// polled from the executor's inner loops; an expired context surfaces
// as exec.ErrTimeout. The result carries the columnar Answer and no
// string rows: nothing on the way from the executor to a serializer
// materializes text. lr is q's lint result when the caller has one, as
// a serving endpoint does for its response header: the evaluation then
// takes lr.Scope, lr.Empty and lr.Prefixes instead of analysing q's
// variables, proving its emptiness and collecting its prefixes itself.
// A nil lr means derive all three.
func QueryAnswer(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lr *lint.Result, lim Limits) (*Result, error) {
	if lim.MaxRows <= 0 {
		lim.MaxRows = DefaultMaxRows
	}
	ev := &evaluator{st: sn, lim: lim, ctx: ctx}
	if lr != nil {
		ev.prefixes = lr.Prefixes
	} else {
		ev.prefixes = q.Prologue.PrefixMap()
	}
	return ev.run(q, lr)
}

// run is one execution of q, linted as lr when that is not nil:
// QueryAnswer's, or Explain's.
func (ev *evaluator) run(q *sparql.Query, lr *lint.Result) (*Result, error) {
	if h := TestHookExecute; h != nil {
		h(q)
	}
	var sc *sparql.Scope
	var empty bool
	if lr != nil {
		sc, empty = lr.Scope, lr.Empty && !ev.lim.noStatic
	} else {
		sc = sparql.ScopeOf(q)
		empty = ev.emptyUnder(sc)
	}
	res, err := ev.query(q, sc, empty)
	if err == nil {
		res.Recovered = ev.recovered
		res.Probes = ev.probes
	}
	return res, err
}

// emptyUnder is lint.EmptyUnder(sc) under ev's prologue, or false when
// the static-emptiness short circuit is off.
func (ev *evaluator) emptyUnder(sc *sparql.Scope) bool {
	return !ev.lim.noStatic && lint.EmptyUnder(sc, ev.prefixes)
}

// TestHookExecute, when set, runs at the start of every execution,
// Explain's included. Tests of the serving layers set it to inject a
// panic or a stall into the request path, and Explain's tests count
// executions with it; nothing else may.
var TestHookExecute func(q *sparql.Query)

// answered wraps a columnar answer as an evaluation result.
func answered(a *exec.Answer) *Result {
	return &Result{Vars: a.Vars, Bool: a.Bool, Answer: a}
}

type evaluator struct {
	st       *rdf.Snapshot
	prefixes sparql.Prefixes
	lim      Limits
	ctx      context.Context
	// colPool records the last columnar execution's term pool; tests
	// read its Text-call counter to pin the lazy-materialization
	// contract (operators move IDs, only the edges touch strings).
	colPool *exec.Pool
	// recovered accumulates silent SERVICE recoveries across the whole
	// evaluation, subqueries included — surfaced as Result.Recovered.
	recovered int
	// probes accumulates snapshot index accesses across every columnar
	// execution of this evaluation (subqueries make their own colExec
	// and harvest into here) — surfaced as Result.Probes.
	probes int64
	// explain collects what Explain renders; nil on every other
	// evaluation, where the compiler records nothing.
	explain *explainTrace
	// regexes holds REGEX's compiled patterns by (pattern, flags), nil
	// for one that does not compile (see regex).
	regexes map[[2]string]*regexp.Regexp
}

// termText renders a query term as store text; variables and blanks
// return ok=false.
func (ev *evaluator) termText(t sparql.Term) (string, bool) {
	switch t.Kind {
	case sparql.TermIRI:
		return ev.prefixes.Expand(t.Value, t.PrefixedForm), true
	case sparql.TermLiteral:
		return t.Value, true
	default:
		return "", false
	}
}

// describe returns every triple whose subject or object is one of
// the described resources (the common "concise bounded description"
// approximation; the output of DESCRIBE is implementation-defined).
//
// The targets are dictionary IDs — an ID outside the dictionary is a
// term that occurs in no triple, and is skipped — and each one's triples
// are read from the by-subject and by-object index rows, so the cost is
// the size of the answer, not of the store. Row order: targets by
// ascending ID; per target its outgoing edges in (p, o) order, then its
// incoming edges in (s, p) order. An
// incoming edge whose subject is itself a target is left to that
// subject's outgoing run (both-endpoint targets, self-loops), so no
// triple is emitted twice.
func (ev *evaluator) describe(targets map[rdf.ID]bool) *Result {
	ids := make([]rdf.ID, 0, len(targets))
	for id := range targets {
		if id < rdf.ID(ev.st.NumTerms()) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t := &idTable{cols: make([][]rdf.ID, 3)}
	for _, id := range ids {
		preds, objs := ev.st.SubjectEdges(id)
		for i := range preds {
			t.add(id, preds[i], objs[i])
		}
		subs, preds := ev.st.ObjectEdges(id)
		for i := range subs {
			if !targets[subs[i]] {
				t.add(subs[i], preds[i], id)
			}
		}
	}
	// Index rows hold dictionary IDs only: the answer has no overflow.
	return answered(exec.NewPool(ev.st).Answer([]string{"s", "p", "o"}, t.cols, t.n))
}

// pathResolver maps a path expression's prefixed names to store IDs,
// expanding them against the prologue.
func (ev *evaluator) pathResolver() pathcomp.Resolver {
	return func(pname string) (rdf.ID, bool) {
		return ev.st.Lookup(ev.prefixes.Expand(pname, true))
	}
}
