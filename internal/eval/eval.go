// Package eval executes parsed SPARQL queries against an rdf.Snapshot: the
// group graph pattern algebra (joins, OPTIONAL, UNION, MINUS, FILTER,
// BIND, VALUES, subqueries, property paths), expression evaluation, and
// the solution modifiers (projection, DISTINCT, ORDER BY, LIMIT/OFFSET,
// GROUP BY with aggregates, HAVING).
//
// Evaluation runs on the slot-based columnar executor (internal/exec):
// the WHERE clause compiles once into an operator tree over a
// query-wide variable→slot schema and solutions flow through it as
// rdf.ID batches, with strings only at the edges (see columnar.go); the
// answer itself is ID columns (exec.Answer), which QueryAnswer returns
// as they are and QueryContext additionally renders as string rows.
// It is the only evaluator: every query shape, aggregates, CONSTRUCT
// and DESCRIBE included, finishes on IDs. The solution modifiers run
// once, as operators on the solution stream, for every query form:
// ORDER BY, the projection's expressions, DISTINCT, then OFFSET/LIMIT,
// which stops the pull once it is met. SELECT * projects the WHERE
// clause's in-scope variables (sparql.InScopeVars), and CONSTRUCT and
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
	"sort"

	"sparqlog/internal/exec"
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
	res, err := QueryAnswer(ctx, sn, q, lim)
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
// materializes text.
func QueryAnswer(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	if lim.MaxRows <= 0 {
		lim.MaxRows = DefaultMaxRows
	}
	return (&evaluator{st: sn, prefixes: q.Prologue.PrefixMap(), lim: lim, ctx: ctx}).run(q)
}

// run is one execution of q: QueryAnswer's, or Explain's.
func (ev *evaluator) run(q *sparql.Query) (*Result, error) {
	if h := TestHookExecute; h != nil {
		h(q)
	}
	res, err := ev.query(q)
	if err == nil {
		res.Recovered = ev.recovered
		res.Probes = ev.probes
	}
	return res, err
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

// varName returns the binding key for a variable or blank node (blank
// nodes act as non-projectable variables in patterns).
func varName(t sparql.Term) (string, bool) {
	switch t.Kind {
	case sparql.TermVar:
		return t.Value, true
	case sparql.TermBlank:
		return "_:" + t.Value, true
	}
	return "", false
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

// reorderElems is the order-rewriting core shared by the compiler
// (which seeds bound from the statically bound slots) and the test-only
// reference evaluator (which seeds it from its first incoming row).
// It marks every variable the elements can bind into bound as it goes.
func (ev *evaluator) reorderElems(elems []sparql.Pattern, bound map[string]bool) []sparql.Pattern {
	multi := false
	for i := 1; i < len(elems); i++ {
		_, a := elems[i-1].(*sparql.TriplePattern)
		_, b := elems[i].(*sparql.TriplePattern)
		if a && b {
			multi = true
			break
		}
	}
	if !multi {
		return elems
	}
	out := make([]sparql.Pattern, 0, len(elems))
	for i := 0; i < len(elems); {
		tp, ok := elems[i].(*sparql.TriplePattern)
		if !ok {
			ev.markPatternVars(elems[i], bound)
			out = append(out, elems[i])
			i++
			continue
		}
		run := []*sparql.TriplePattern{tp}
		j := i + 1
		for ; j < len(elems); j++ {
			next, ok := elems[j].(*sparql.TriplePattern)
			if !ok {
				break
			}
			run = append(run, next)
		}
		for _, t := range ev.orderRun(run, bound) {
			out = append(out, t)
		}
		for _, t := range run {
			for _, term := range [3]sparql.Term{t.S, t.P, t.O} {
				if name, ok := varName(term); ok {
					bound[name] = true
				}
			}
		}
		i = j
	}
	return out
}

// compileBGP compiles triple patterns to planner atoms, returning the
// variable-name table (planner variable index -> binding name).
// Constants missing from the dictionary compile to an out-of-dictionary
// ID, whose zero statistics order the (necessarily empty) atom first.
func (ev *evaluator) compileBGP(patterns []*sparql.TriplePattern) ([]plan.Atom, []string) {
	varIdx := map[string]int{}
	var names []string
	idx := func(name string) int {
		if i, ok := varIdx[name]; ok {
			return i
		}
		varIdx[name] = len(names)
		names = append(names, name)
		return len(names) - 1
	}
	toRef := func(t sparql.Term) plan.TermRef {
		if txt, ok := ev.termText(t); ok {
			if id, known := ev.st.Lookup(txt); known {
				return plan.C(id)
			}
			return plan.C(^rdf.ID(0))
		}
		name, _ := varName(t)
		return plan.V(idx(name))
	}
	atoms := make([]plan.Atom, len(patterns))
	for i, tp := range patterns {
		atoms[i] = plan.Atom{S: toRef(tp.S), P: toRef(tp.P), O: toRef(tp.O)}
	}
	return atoms, names
}

// orderRun plans one basic graph pattern, seeded with the variables
// earlier elements of its group bind.
func (ev *evaluator) orderRun(run []*sparql.TriplePattern, bound map[string]bool) []*sparql.TriplePattern {
	if len(run) < 2 {
		return run
	}
	atoms, names := ev.compileBGP(run)
	initial := make([]bool, len(names))
	for i, name := range names {
		initial[i] = bound[name]
	}
	p := plan.Planner{Stats: ev.st.Stats()}.PlanBound(atoms, len(names), initial)
	ordered := make([]*sparql.TriplePattern, len(run))
	for k, ai := range p.Order {
		ordered[k] = run[ai]
	}
	if x := ev.explain; x != nil {
		x.planned(run, p, atoms, names, initial)
	}
	return ordered
}

// markPatternVars marks the variables a non-triple group element can
// bind, for planning purposes only (a miss costs plan quality, never
// correctness; OPTIONAL/UNION variables are not guaranteed bound at
// runtime, but planning as if they were beats ignoring them). Nested
// patterns are walked recursively.
func (ev *evaluator) markPatternVars(p sparql.Pattern, bound map[string]bool) {
	sparql.Walk(p, func(n sparql.Pattern) bool {
		switch x := n.(type) {
		case *sparql.TriplePattern:
			for _, t := range [3]sparql.Term{x.S, x.P, x.O} {
				if name, ok := varName(t); ok {
					bound[name] = true
				}
			}
		case *sparql.PathPattern:
			for _, t := range [2]sparql.Term{x.S, x.O} {
				if name, ok := varName(t); ok {
					bound[name] = true
				}
			}
		case *sparql.Bind:
			bound[x.Var.Value] = true
		case *sparql.InlineData:
			for _, v := range x.Vars {
				bound[v.Value] = true
			}
		}
		return true
	})
}

// pathResolver maps a path expression's prefixed names to store IDs,
// expanding them against the prologue.
func (ev *evaluator) pathResolver() pathcomp.Resolver {
	return func(pname string) (rdf.ID, bool) {
		return ev.st.Lookup(ev.prefixes.Expand(pname, true))
	}
}

// hasAggregates reports whether the query needs grouped evaluation.
func hasAggregates(q *sparql.Query) bool {
	if len(q.Mods.GroupBy) > 0 {
		return true
	}
	for _, it := range q.Select {
		if containsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func containsAggregate(e sparql.Expr) bool {
	found := false
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		if _, ok := x.(*sparql.AggregateExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
