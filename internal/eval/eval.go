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
// The pre-refactor materialized path — per-row map bindings — survives
// behind Limits.legacy as the differential-testing reference.
//
// The store's dictionary is untyped text, so literals match on their
// lexical form; language tags and datatypes are compared syntactically
// where expressions need them. GRAPH and SERVICE blocks evaluate against
// the same store (it is a single-graph store); a GRAPH variable binds to
// the pseudo-IRI DefaultGraph.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sparqlog/internal/exec"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// DefaultGraph is the pseudo-IRI a GRAPH variable binds to.
const DefaultGraph = "urn:sparqlog:default-graph"

// Unbound marks an unbound variable in result rows. The empty string
// is the unbound marker throughout the evaluator: an expression or
// VALUES term whose lexical form is empty binds nothing (both
// executors enforce this uniformly — the columnar pool interns "" to
// its Unbound sentinel, the legacy path skips the map write).
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
	// columns, immutable and possibly shared with the result cache and
	// with concurrent requests for the same query. Serving layers
	// serialize from it and never need Rows.
	Answer *exec.Answer
	// Recovered counts silent SERVICE recoveries during evaluation:
	// SERVICE SILENT bodies whose failure was swallowed and replaced by
	// the unjoined input. Queries without SERVICE SILENT report zero; a
	// nonzero count means part of the answer came from no-op federation.
	Recovered int
	// Probes counts snapshot index accesses made by the columnar
	// executor during evaluation (joins and compiled-path lookups,
	// subqueries included). A statically short-circuited query — one the
	// linter proved empty before compilation — finishes with zero. The
	// legacy path does not meter itself and always reports zero.
	Probes int64
	// Modifiers reports columnar GROUP BY / ORDER BY operator execution
	// (group counts, heap-vs-sort mode); nil when neither operator ran.
	Modifiers *ModifierInfo
	// Cached marks a result served from the result cache (Limits.Results)
	// without executing; Collapsed marks one received from a concurrent
	// identical execution via single-flight. Both false means this
	// result was evaluated here.
	Cached    bool
	Collapsed bool
	// CacheKey is the canonical cache key when the result is resident in
	// the result cache (a hit, or a fresh execution that was admitted).
	// Serving layers use it to attach and reuse serialized bodies;
	// empty means not resident.
	CacheKey string
}

// ModifierInfo summarizes columnar solution-modifier execution: the
// GroupBy and TopK operators the compiler placed. Nil when neither ran
// (no aggregation/ordering, the legacy path, or a legacy-shape
// aggregate finisher).
type ModifierInfo struct {
	// Groups is the emitted group count (before HAVING), GroupRows the
	// input rows aggregated.
	Groups    int64
	GroupRows int64
	// TopKMode is "heap" (bounded selection) or "sort" (full stable
	// sort); empty when no ORDER BY operator ran. TopKScanned rows went
	// in, TopKKept came out.
	TopKMode    string
	TopKScanned int64
	TopKKept    int64
}

// Limits bounds evaluation.
type Limits struct {
	// MaxRows caps any intermediate binding set (0 = DefaultMaxRows).
	MaxRows int
	// Paths optionally shares a compiled-path cache across queries
	// against the same snapshot (the plan.Cache pattern): a serving
	// layer evaluating recurring path shapes compiles each shape once.
	// Nil gives every query its own cache, which still amortizes
	// compilation across bindings and repeated patterns within it.
	Paths *pathcomp.Cache
	// Plans optionally shares a query-shape plan cache across queries
	// against the same snapshot: the planner runs once per BGP shape
	// and every execution reuses the cached order (plans carry slot
	// assignments, so a cache hit is executable without re-resolving
	// variables). Only unseeded runs consult it; a BGP whose variables
	// were pre-bound by earlier operators plans directly.
	Plans *plan.Cache
	// Results optionally consults a snapshot-keyed query result cache
	// between parse and execution (internal/qcache): repeated queries —
	// keyed by their canonical sparql.QueryString, so variable renaming
	// and prefix spelling do not split entries — skip the plan→exec
	// pipeline entirely, and concurrent identical queries collapse onto
	// one execution (single-flight). The cache is bound to one snapshot;
	// evaluating a different snapshot degrades to uncached execution.
	// Errors, deadline truncations, row-limit overflows, and
	// SERVICE-recovered results are never cached.
	Results *qcache.Cache
	// Parallel is the worker budget of a both-ends-free compiled-path
	// sweep (pathcomp.PairsParCtx), and of nothing else: the query's
	// operator pipeline always runs on the calling goroutine. 0 means
	// auto (GOMAXPROCS), 1 sweeps serially, higher values cap the worker
	// set. The sweep merges in serial order, so answers are identical
	// for every value.
	Parallel int

	// The switches below turn a default mechanism off. No binary sets
	// them; this package's differential tests and ablation benchmarks do.

	// noReorder keeps basic graph patterns in their syntactic order
	// instead of the cost-based planner's order — the pre-planner
	// behaviour.
	noReorder bool
	// legacy evaluates on the pre-columnar materialized path: per-row
	// map[string]string bindings flowing through the pattern algebra —
	// the differential-testing reference for the slot-based columnar
	// executor (the default).
	legacy bool
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
// as exec.ErrTimeout. (The legacy path polls between pattern operators
// only — coarser, but it exists for differential testing, not serving.)
// The result carries the columnar Answer and no string rows: nothing on
// the way from the executor through the result cache materializes text.
func QueryAnswer(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	if lim.MaxRows <= 0 {
		lim.MaxRows = DefaultMaxRows
	}
	// A cache built for another snapshot degrades to direct execution
	// (the plan.Cache convention).
	if lim.Results != nil && lim.Results.Snapshot() == sn {
		return queryCached(ctx, sn, q, lim)
	}
	return queryDirect(ctx, sn, q, lim)
}

// queryDirect is the uncached evaluation path.
func queryDirect(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	if h := TestHookExecute; h != nil {
		h(q)
	}
	ev := &evaluator{st: sn, prefixes: q.Prologue.PrefixMap(), lim: lim, ctx: ctx}
	res, err := ev.viaRows(ev.query(q))
	if err == nil {
		res.Recovered = ev.recovered
		res.Probes = ev.probes
		res.Modifiers = ev.modInfo
	}
	return res, err
}

// TestHookExecute, when set, runs at the start of every uncached
// evaluation. Tests of the serving layers set it to inject a panic or
// a stall into the request path; nothing else may.
var TestHookExecute func(q *sparql.Query)

// answered wraps a columnar answer as an evaluation result.
func answered(a *exec.Answer) *Result {
	return &Result{Vars: a.Vars, Bool: a.Bool, Answer: a}
}

// viaRows moves a string finisher's result into columnar form through
// the one rows→columns constructor; a result that already carries its
// Answer passes through.
func (ev *evaluator) viaRows(res *Result, err error) (*Result, error) {
	if err != nil || res.Answer != nil {
		return res, err
	}
	res.Answer = exec.NewAnswer(ev.st, res.Vars, res.Rows, res.Bool)
	res.Rows = nil
	return res, nil
}

type binding map[string]string

func (b binding) clone() binding {
	c := make(binding, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

type evaluator struct {
	st       *rdf.Snapshot
	prefixes sparql.Prefixes
	lim      Limits
	ctx      context.Context
	// pathc caches compiled property-path automata for this snapshot,
	// so a path evaluated under many bindings (or appearing several
	// times in the query) compiles once. Lazily built on first path.
	pathc *pathcomp.Cache
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
	// modInfo records the outermost columnar GroupBy/TopK execution
	// (subquery executions overwrite first, the main query last) —
	// surfaced as Result.Modifiers.
	modInfo *ModifierInfo
}

// pathCache returns the compiled-path cache: the caller-shared one from
// Limits.Paths when set (and built for this snapshot — the cache itself
// degrades a mismatch to uncached compilation), else a per-query cache
// created on first use.
func (ev *evaluator) pathCache() *pathcomp.Cache {
	if ev.lim.Paths != nil {
		return ev.lim.Paths
	}
	if ev.pathc == nil {
		ev.pathc = pathcomp.NewCache(ev.st)
	}
	return ev.pathc
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

// query dispatches to the columnar executor (the default) or the
// legacy materialized path (Limits.legacy, the differential
// reference). Subqueries recurse through here, so both paths stay
// internally homogeneous.
func (ev *evaluator) query(q *sparql.Query) (*Result, error) {
	if ev.lim.legacy {
		return ev.queryLegacy(q)
	}
	return ev.queryColumnar(q)
}

func (ev *evaluator) queryLegacy(q *sparql.Query) (*Result, error) {
	rows := []binding{{}}
	var err error
	if q.Where != nil {
		rows, err = ev.pattern(q.Where, rows)
		if err != nil {
			return nil, err
		}
	}
	if q.TrailingValues != nil {
		rows, err = ev.values(q.TrailingValues, rows)
		if err != nil {
			return nil, err
		}
	}
	envs := make([]env, len(rows))
	for i := range rows {
		envs[i] = rows[i]
	}
	switch q.Type {
	case sparql.AskQuery:
		return &Result{Bool: len(rows) > 0}, nil
	case sparql.SelectQuery:
		return ev.finishSelect(q, envs)
	case sparql.ConstructQuery:
		return ev.finishConstruct(q, envs)
	case sparql.DescribeQuery:
		return ev.finishDescribe(q, envs)
	}
	return nil, fmt.Errorf("eval: unknown query type")
}

// finishConstruct instantiates the template per solution, returning the
// constructed triples as three-column rows (s, p, o), deduplicated on
// the term triple (no joined-string keys).
func (ev *evaluator) finishConstruct(q *sparql.Query, rows []env) (*Result, error) {
	res := &Result{Vars: []string{"s", "p", "o"}}
	seen := map[[3]string]bool{}
	emit := func(s, p, o string) {
		k := [3]string{s, p, o}
		if s == "" || p == "" || o == "" || seen[k] {
			return
		}
		seen[k] = true
		res.Rows = append(res.Rows, []string{s, p, o})
	}
	instantiate := func(t sparql.Term, b env) string {
		if txt, ok := ev.termText(t); ok {
			return txt
		}
		name, _ := varName(t)
		v, _ := b.lookupVar(name)
		return v
	}
	for _, b := range rows {
		for _, tp := range q.Template {
			emit(instantiate(tp.S, b), instantiate(tp.P, b), instantiate(tp.O, b))
		}
	}
	applySlice(q, res)
	return res, nil
}

// finishDescribe returns every triple whose subject or object is one of
// the described resources (the common "concise bounded description"
// approximation; the output of DESCRIBE is implementation-defined).
//
// The targets are resolved to dictionary IDs once — a term the
// dictionary does not know occurs in no triple — and each one's triples
// are read from the by-subject and by-object index rows, so the cost is
// the size of the answer, not of the store. Row order, which
// LIMIT/OFFSET slice: targets by ascending ID; per target its outgoing
// edges in (p, o) order, then its incoming edges in (s, p) order. An
// incoming edge whose subject is itself a target is left to that
// subject's outgoing run (both-endpoint targets, self-loops), so no
// triple is emitted twice.
func (ev *evaluator) finishDescribe(q *sparql.Query, rows []env) (*Result, error) {
	targets := map[rdf.ID]bool{}
	add := func(term string) {
		if id, ok := ev.st.Lookup(term); ok {
			targets[id] = true
		}
	}
	for _, t := range q.DescribeTerms {
		if txt, ok := ev.termText(t); ok {
			add(txt)
			continue
		}
		if name, ok := varName(t); ok {
			for _, b := range rows {
				if v, bound := b.lookupVar(name); bound {
					add(v)
				}
			}
		}
	}
	if q.DescribeStar {
		for _, b := range rows {
			b.eachBound(func(name string) {
				if v, ok := b.lookupVar(name); ok {
					add(v)
				}
			})
		}
	}
	ids := make([]rdf.ID, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t := &idTable{cols: make([][]rdf.ID, 3)}
	emit := func(s, p, o rdf.ID) {
		t.cols[0], t.cols[1], t.cols[2] = append(t.cols[0], s), append(t.cols[1], p), append(t.cols[2], o)
		t.n++
	}
	for _, id := range ids {
		preds, objs := ev.st.SubjectEdges(id)
		for i := range preds {
			emit(id, preds[i], objs[i])
		}
		subs, preds := ev.st.ObjectEdges(id)
		for i := range subs {
			if !targets[subs[i]] {
				emit(subs[i], preds[i], id)
			}
		}
	}
	t.slice(q)
	// Index rows hold dictionary IDs only: the answer has no overflow.
	return answered(exec.NewPool(ev.st).Answer([]string{"s", "p", "o"}, t.cols, t.n)), nil
}

// ---------- pattern algebra ----------

// pattern evaluates p against the incoming binding set.
func (ev *evaluator) pattern(p sparql.Pattern, in []binding) ([]binding, error) {
	if ev.ctx != nil && ev.ctx.Err() != nil {
		return nil, exec.ErrTimeout
	}
	switch n := p.(type) {
	case *sparql.Group:
		return ev.group(n, in)
	case *sparql.TriplePattern:
		return ev.triple(n, in)
	case *sparql.PathPattern:
		return ev.path(n, in)
	case *sparql.Union:
		left, err := ev.pattern(n.Left, in)
		if err != nil {
			return nil, err
		}
		right, err := ev.pattern(n.Right, in)
		if err != nil {
			return nil, err
		}
		out := append(left, right...)
		if len(out) > ev.lim.MaxRows {
			return nil, fmt.Errorf("eval: row limit exceeded")
		}
		return out, nil
	case *sparql.Optional:
		return ev.optional(n, in)
	case *sparql.MinusGraph:
		return ev.minus(n, in)
	case *sparql.GraphGraph:
		// Single-graph store: bind a GRAPH variable to the default
		// graph's pseudo-IRI and evaluate the body as usual.
		next := in
		if v, ok := varName(n.Name); ok {
			next = make([]binding, 0, len(in))
			for _, b := range in {
				if cur, bound := b[v]; bound && cur != DefaultGraph {
					continue
				}
				nb := b.clone()
				nb[v] = DefaultGraph
				next = append(next, nb)
			}
		}
		return ev.pattern(n.Inner, next)
	case *sparql.ServiceGraph:
		// SERVICE against this store (no federation in an offline
		// library); SILENT semantics are preserved on failure.
		out, err := ev.pattern(n.Inner, in)
		if err != nil && n.Silent {
			ev.recovered++
			return in, nil
		}
		return out, err
	case *sparql.Filter:
		return ev.filter(n.Constraint, in)
	case *sparql.Bind:
		return ev.bind(n, in)
	case *sparql.InlineData:
		return ev.values(n, in)
	case *sparql.SubSelect:
		return ev.subselect(n, in)
	}
	return nil, fmt.Errorf("eval: unsupported pattern %T", p)
}

// group evaluates elements in order; FILTERs apply after the group's
// joins, per the SPARQL algebra translation. Runs of adjacent triple
// patterns (basic graph patterns) are reordered by the cost-based
// planner first — joins are commutative, so only the enumeration order
// changes, not the solution set.
func (ev *evaluator) group(g *sparql.Group, in []binding) ([]binding, error) {
	elems := g.Elems
	if !ev.lim.noReorder {
		elems = ev.reorderBGPs(elems, in)
	}
	rows := in
	var filters []sparql.Expr
	var err error
	for _, el := range elems {
		if f, ok := el.(*sparql.Filter); ok {
			filters = append(filters, f.Constraint)
			continue
		}
		rows, err = ev.pattern(el, rows)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			// Joins cannot recover; filters on empty input stay empty.
			return rows, nil
		}
	}
	for _, f := range filters {
		rows, err = ev.filter(f, rows)
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// reorderBGPs rewrites the group's element list with every maximal run
// of adjacent triple patterns permuted into the cost-based planner's
// order (greedy minimum selectivity over the snapshot's Freeze-time
// statistics). Non-triple elements keep their positions: OPTIONAL,
// MINUS, BIND and friends are order-sensitive, so only the commutative
// BGP joins between them are touched. Variables bound by earlier
// elements (or by the incoming binding set) seed the planner's
// bound-variable propagation.
func (ev *evaluator) reorderBGPs(elems []sparql.Pattern, in []binding) []sparql.Pattern {
	bound := map[string]bool{}
	if len(in) > 0 {
		for k := range in[0] {
			bound[k] = true
		}
	}
	return ev.reorderElems(elems, bound)
}

// reorderElems is the order-rewriting core shared by the legacy
// evaluator (which seeds bound from its first incoming row) and the
// columnar compiler (which seeds it from the statically bound slots).
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
		for j < len(elems) {
			next, ok := elems[j].(*sparql.TriplePattern)
			if !ok {
				break
			}
			run = append(run, next)
			j++
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
// Shared by orderRun and Explain so the two compile paths cannot drift.
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

// orderRun plans one basic graph pattern. Runs with no pre-bound
// variables go through the shared shape-keyed plan cache when
// Limits.Plans carries one (compileBGP numbers variables by first
// occurrence — the same canonicalization the shape key uses — so a
// cached order transfers across queries of one shape); seeded runs
// plan directly, since the bound-variable seed is not part of the key.
func (ev *evaluator) orderRun(run []*sparql.TriplePattern, bound map[string]bool) []*sparql.TriplePattern {
	if len(run) < 2 {
		return run
	}
	atoms, names := ev.compileBGP(run)
	initial := make([]bool, len(names))
	seeded := false
	for i, name := range names {
		initial[i] = bound[name]
		seeded = seeded || initial[i]
	}
	var p *plan.Plan
	if !seeded && ev.lim.Plans != nil {
		p = ev.lim.Plans.For(ev.st, atoms, len(names))
	} else {
		p = plan.Planner{Stats: ev.st.Stats()}.PlanBound(atoms, len(names), initial)
	}
	ordered := make([]*sparql.TriplePattern, len(run))
	for k, ai := range p.Order {
		ordered[k] = run[ai]
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

func (ev *evaluator) triple(tp *sparql.TriplePattern, in []binding) ([]binding, error) {
	var out []binding
	for _, b := range in {
		err := ev.matchTriple(tp, b, func(nb binding) {
			out = append(out, nb)
		})
		if err != nil {
			return nil, err
		}
		if len(out) > ev.lim.MaxRows {
			return nil, fmt.Errorf("eval: row limit exceeded")
		}
	}
	return out, nil
}

// matchTriple enumerates store matches of tp under b.
func (ev *evaluator) matchTriple(tp *sparql.TriplePattern, b binding, yield func(binding)) error {
	resolve := func(t sparql.Term) (id rdf.ID, bound bool, v string, isVar bool) {
		if txt, ok := ev.termText(t); ok {
			tid, exists := ev.st.Lookup(txt)
			if !exists {
				return 0, false, "", false // constant absent: no matches
			}
			return tid, true, "", false
		}
		name, _ := varName(t)
		if cur, ok := b[name]; ok {
			tid, exists := ev.st.Lookup(cur)
			if !exists {
				return 0, false, name, true
			}
			return tid, true, name, true
		}
		return 0, false, name, true
	}
	s, sb, sv, sIsVar := resolve(tp.S)
	p, pb, pv, pIsVar := resolve(tp.P)
	o, ob, ov, oIsVar := resolve(tp.O)
	// A constant or pre-bound term missing from the dictionary cannot
	// match anything.
	if (!sb && !sIsVar) || (!pb && !pIsVar) || (!ob && !oIsVar) {
		return nil
	}
	if sIsVar && !sb && b[sv] != "" {
		return nil // bound to a term unknown to the store
	}
	if pIsVar && !pb && b[pv] != "" {
		return nil
	}
	if oIsVar && !ob && b[ov] != "" {
		return nil
	}
	emit := func(ts, tp2, to rdf.ID) {
		nb := b.clone()
		if sIsVar {
			nb[sv] = ev.st.TermOf(ts)
		}
		if pIsVar {
			nb[pv] = ev.st.TermOf(tp2)
		}
		if oIsVar {
			nb[ov] = ev.st.TermOf(to)
		}
		yield(nb)
	}
	// Repeated-variable consistency within the atom.
	consistent := func(ts, tp2, to rdf.ID) bool {
		if sIsVar && pIsVar && sv == pv && ts != tp2 {
			return false
		}
		if sIsVar && oIsVar && sv == ov && ts != to {
			return false
		}
		if pIsVar && oIsVar && pv == ov && tp2 != to {
			return false
		}
		return true
	}
	st := ev.st
	switch {
	case sb && pb && ob:
		if st.Has(s, p, o) {
			emit(s, p, o)
		}
	case sb && pb:
		for _, obj := range st.Objects(s, p) {
			if consistent(s, p, obj) {
				emit(s, p, obj)
			}
		}
	case pb && ob:
		for _, sub := range st.Subjects(p, o) {
			if consistent(sub, p, o) {
				emit(sub, p, o)
			}
		}
	case sb && ob:
		for _, pred := range st.Predicates(s, o) {
			if consistent(s, pred, o) {
				emit(s, pred, o)
			}
		}
	case pb:
		for _, t := range st.ScanPredicate(p) {
			if consistent(t.S, t.P, t.O) {
				emit(t.S, t.P, t.O)
			}
		}
	case sb:
		// Subject-only: the subject's full edge list from the SPO index
		// replaces the old store scan.
		preds, objs := st.SubjectEdges(s)
		for i := range preds {
			if consistent(s, preds[i], objs[i]) {
				emit(s, preds[i], objs[i])
			}
		}
	case ob:
		subs, preds := st.ObjectEdges(o)
		for i := range subs {
			if consistent(subs[i], preds[i], o) {
				emit(subs[i], preds[i], o)
			}
		}
	default:
		for _, t := range st.Triples() {
			if consistent(t.S, t.P, t.O) {
				emit(t.S, t.P, t.O)
			}
		}
	}
	return nil
}

// pathResolver maps path-expression IRI text to store IDs, expanding
// prefixed names against the prologue first.
func (ev *evaluator) pathResolver() pathcomp.Resolver {
	return func(iri string) (rdf.ID, bool) {
		full := ev.prefixes.Expand(iri, !strings.Contains(iri, "://"))
		if iri == sparql.RDFType {
			full = sparql.RDFType
		}
		return ev.st.Lookup(full)
	}
}

func (ev *evaluator) path(pp *sparql.PathPattern, in []binding) ([]binding, error) {
	resolver := ev.pathResolver()
	// Compile once per pattern — the automaton is shared by every
	// binding below (and by re-evaluations of the same shape elsewhere
	// in the query, through the per-snapshot cache).
	cp := ev.pathCache().Compile(ev.st, pp.Path, resolver)
	// Loop nodes for the same-variable case are binding-independent;
	// compute them once, on first need.
	var loops []rdf.ID
	loopsDone := false
	var out []binding
	for _, b := range in {
		sTxt, sConst := ev.termText(pp.S)
		sName, _ := varName(pp.S)
		if !sConst {
			if cur, ok := b[sName]; ok {
				sTxt, sConst = cur, true
			}
		}
		oTxt, oConst := ev.termText(pp.O)
		oName, _ := varName(pp.O)
		if !oConst {
			if cur, ok := b[oName]; ok {
				oTxt, oConst = cur, true
			}
		}
		switch {
		case sConst && oConst:
			sid, ok1 := ev.st.Lookup(sTxt)
			oid, ok2 := ev.st.Lookup(oTxt)
			if ok1 && ok2 && cp.Holds(sid, oid) {
				out = append(out, b.clone())
			}
		case sConst:
			sid, ok := ev.st.Lookup(sTxt)
			if !ok {
				continue
			}
			for _, n := range cp.From(sid) {
				nb := b.clone()
				nb[oName] = ev.st.TermOf(n)
				out = append(out, nb)
			}
		case oConst:
			// Object bound, subject free: evaluate the path in reverse
			// from the object instead of enumerating every pair and
			// filtering — which also fixes the old limit bug where pairs
			// were capped at MaxRows BEFORE the object filter, silently
			// dropping matches past the cap.
			oid, ok := ev.st.Lookup(oTxt)
			if !ok {
				continue
			}
			for _, n := range cp.To(oid) {
				nb := b.clone()
				nb[sName] = ev.st.TermOf(n)
				out = append(out, nb)
			}
		case sName == oName:
			// Same variable on both ends (?x path ?x): only loop nodes
			// match, computed once in a single sweep.
			if !loopsDone {
				loops, loopsDone = cp.Loops(), true
			}
			for _, id := range loops {
				nb := b.clone()
				nb[sName] = ev.st.TermOf(id)
				out = append(out, nb)
			}
		default:
			// Both ends open: enumerate pairs. The enumeration cap sits
			// one past the row limit so an overflowing result trips the
			// row-limit error below instead of truncating silently.
			// Invariant: the end-of-loop check keeps len(out) <= MaxRows
			// whenever a binding starts, so this limit is always >= 1
			// (0 would mean unlimited to Pairs).
			for _, pair := range cp.Pairs(ev.lim.MaxRows + 1 - len(out)) {
				nb := b.clone()
				nb[sName] = ev.st.TermOf(pair[0])
				nb[oName] = ev.st.TermOf(pair[1])
				out = append(out, nb)
			}
		}
		if len(out) > ev.lim.MaxRows {
			return nil, fmt.Errorf("eval: row limit exceeded")
		}
	}
	return out, nil
}

func (ev *evaluator) optional(opt *sparql.Optional, in []binding) ([]binding, error) {
	var out []binding
	for _, b := range in {
		extended, err := ev.pattern(opt.Inner, []binding{b})
		if err != nil {
			return nil, err
		}
		if len(extended) > 0 {
			out = append(out, extended...)
		} else {
			out = append(out, b)
		}
		if len(out) > ev.lim.MaxRows {
			return nil, fmt.Errorf("eval: row limit exceeded")
		}
	}
	return out, nil
}

func (ev *evaluator) minus(m *sparql.MinusGraph, in []binding) ([]binding, error) {
	removed, err := ev.pattern(m.Inner, []binding{{}})
	if err != nil {
		return nil, err
	}
	var out []binding
	for _, b := range in {
		excluded := false
		for _, r := range removed {
			if compatibleSharing(b, r) {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, b)
		}
	}
	return out, nil
}

// compatibleSharing implements MINUS semantics: b is removed when it is
// compatible with r and they share at least one variable.
func compatibleSharing(b, r binding) bool {
	shared := false
	for k, v := range r {
		if bv, ok := b[k]; ok {
			if bv != v {
				return false
			}
			shared = true
		}
	}
	return shared
}

func (ev *evaluator) bind(bn *sparql.Bind, in []binding) ([]binding, error) {
	var out []binding
	for _, b := range in {
		v, err := ev.eval(bn.Expr, b)
		nb := b.clone()
		// An empty lexical form is the Unbound marker: bind nothing,
		// exactly like the columnar executor's pool.
		if err == nil && v.Lex() != Unbound {
			nb[bn.Var.Value] = v.Lex()
		}
		out = append(out, nb)
	}
	return out, nil
}

func (ev *evaluator) values(vd *sparql.InlineData, in []binding) ([]binding, error) {
	var out []binding
	for _, b := range in {
		for ri, row := range vd.Rows {
			nb := b.clone()
			ok := true
			for ci, v := range vd.Vars {
				if ci < len(vd.Undef[ri]) && vd.Undef[ri][ci] {
					continue
				}
				if ci >= len(row) {
					continue
				}
				txt, _ := ev.termText(row[ci])
				if txt == Unbound {
					// Empty lexical form: constrains nothing, like UNDEF.
					continue
				}
				if cur, bound := nb[v.Value]; bound && cur != txt {
					ok = false
					break
				}
				nb[v.Value] = txt
			}
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out, nil
}

func (ev *evaluator) subselect(ss *sparql.SubSelect, in []binding) ([]binding, error) {
	sub, err := ev.query(ss.Query)
	if err != nil {
		return nil, err
	}
	var out []binding
	for _, b := range in {
		for _, row := range sub.Rows {
			nb := b.clone()
			ok := true
			for i, v := range sub.Vars {
				if row[i] == Unbound {
					continue
				}
				if cur, bound := nb[v]; bound && cur != row[i] {
					ok = false
					break
				}
				nb[v] = row[i]
			}
			if ok {
				out = append(out, nb)
			}
		}
		if len(out) > ev.lim.MaxRows {
			return nil, fmt.Errorf("eval: row limit exceeded")
		}
	}
	return out, nil
}

func (ev *evaluator) filter(c sparql.Expr, in []binding) ([]binding, error) {
	var out []binding
	for _, b := range in {
		v, err := ev.eval(c, b)
		if err == nil && v.Truthy() {
			out = append(out, b)
		}
	}
	return out, nil
}

// ---------- SELECT finishing: grouping, ordering, projection ----------

func (ev *evaluator) finishSelect(q *sparql.Query, rows []env) (*Result, error) {
	if hasAggregates(q) {
		return ev.finishAggregate(q, rows)
	}
	res := ev.projectSelect(q, rows)
	ev.applyOrder(q, res, rows)
	applyDistinct(q, res)
	applySlice(q, res)
	return res, nil
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

// projectSelect builds the projected result rows (no solution
// modifiers applied): plain variables copy through, expression
// projections evaluate per row.
func (ev *evaluator) projectSelect(q *sparql.Query, rows []env) *Result {
	res := &Result{}
	if q.SelectStar {
		seen := map[string]bool{}
		for _, b := range rows {
			b.eachBound(func(v string) {
				if !strings.HasPrefix(v, "_:") && !seen[v] {
					seen[v] = true
					res.Vars = append(res.Vars, v)
				}
			})
		}
		sort.Strings(res.Vars)
	} else {
		for _, it := range q.Select {
			res.Vars = append(res.Vars, it.Var.Value)
		}
	}
	for _, b := range rows {
		row := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			row[i], _ = b.lookupVar(v)
		}
		// Expression projections.
		for i, it := range q.Select {
			if it.Expr != nil {
				if val, err := ev.eval(it.Expr, b); err == nil {
					row[i] = val.Lex()
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
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

// packStrings encodes a string tuple injectively by prefixing every
// part with its byte length. Joining with a separator byte is not
// injective — ("a\x00", "b") and ("a", "\x00b") both join to the same
// string — which silently merged distinct GROUP BY keys (and DISTINCT
// rows) containing NUL bytes.
func packStrings(parts []string) string {
	n := 4 * len(parts)
	for _, p := range parts {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		n := len(p)
		b.WriteByte(byte(n))
		b.WriteByte(byte(n >> 8))
		b.WriteByte(byte(n >> 16))
		b.WriteByte(byte(n >> 24))
		b.WriteString(p)
	}
	return b.String()
}

// groupData is one GROUP BY group: its key values and member rows.
type groupData struct {
	key     []string
	members []env
}

func (ev *evaluator) finishAggregate(q *sparql.Query, rows []env) (*Result, error) {
	// Group rows by the GROUP BY keys.
	groups := map[string]*groupData{}
	var order []string
	for _, b := range rows {
		var key []string
		for _, gk := range q.Mods.GroupBy {
			v, err := ev.eval(gk.Expr, b)
			if err != nil {
				key = append(key, "")
				continue
			}
			key = append(key, v.Lex())
		}
		ks := packStrings(key)
		g, ok := groups[ks]
		if !ok {
			g = &groupData{key: key}
			groups[ks] = g
			order = append(order, ks)
		}
		g.members = append(g.members, b)
	}
	if len(groups) == 0 && len(q.Mods.GroupBy) == 0 {
		// Aggregation without GROUP BY over the empty solution produces
		// one group (COUNT(*) = 0).
		groups[""] = &groupData{}
		order = append(order, "")
	}
	res := &Result{}
	for _, it := range q.Select {
		res.Vars = append(res.Vars, it.Var.Value)
	}
	var rowGroups []*groupData
	for _, ks := range order {
		g := groups[ks]
		// HAVING.
		keep := true
		for _, h := range q.Mods.Having {
			v, err := ev.evalAggregateExpr(h, g.members)
			if err != nil || !v.Truthy() {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := make([]string, len(q.Select))
		for i, it := range q.Select {
			if it.Expr != nil {
				v, err := ev.evalAggregateExpr(it.Expr, g.members)
				if err == nil {
					row[i] = v.Lex()
				}
				continue
			}
			// A plain variable in an aggregate query is a group key;
			// take it from any member.
			if len(g.members) > 0 {
				row[i], _ = g.members[0].lookupVar(it.Var.Value)
			}
		}
		res.Rows = append(res.Rows, row)
		rowGroups = append(rowGroups, g)
	}
	ev.orderAggregated(q, res, rowGroups)
	applyDistinct(q, res)
	applySlice(q, res)
	return res, nil
}

// orderAggregated sorts aggregate results: order keys referring to a
// projected alias sort by that column; other keys (including aggregate
// expressions) evaluate per group.
func (ev *evaluator) orderAggregated(q *sparql.Query, res *Result, rowGroups []*groupData) {
	if len(q.Mods.OrderBy) == 0 || len(res.Rows) != len(rowGroups) {
		return
	}
	colOf := func(name string) int {
		for i, v := range res.Vars {
			if v == name {
				return i
			}
		}
		return -1
	}
	type pair struct {
		row []string
		g   *groupData
	}
	pairs := make([]pair, len(res.Rows))
	for i := range res.Rows {
		pairs[i] = pair{res.Rows[i], rowGroups[i]}
	}
	keyValue := func(p pair, k sparql.OrderKey) (value.Value, bool) {
		if te, ok := k.Expr.(*sparql.TermExpr); ok && te.Term.Kind == sparql.TermVar {
			if c := colOf(te.Term.Value); c >= 0 {
				return value.Text(p.row[c]), true
			}
		}
		v, err := ev.evalAggregateExpr(k.Expr, p.g.members)
		return v, err == nil
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		for _, k := range q.Mods.OrderBy {
			vi, oki := keyValue(pairs[i], k)
			vj, okj := keyValue(pairs[j], k)
			if !oki || !okj {
				continue
			}
			c := value.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range pairs {
		res.Rows[i] = pairs[i].row
	}
}

func (ev *evaluator) applyOrder(q *sparql.Query, res *Result, rows []env) {
	if len(q.Mods.OrderBy) == 0 || len(res.Rows) != len(rows) {
		return
	}
	type pair struct {
		row []string
		b   env
	}
	pairs := make([]pair, len(res.Rows))
	for i := range res.Rows {
		pairs[i] = pair{res.Rows[i], rows[i]}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		for _, k := range q.Mods.OrderBy {
			vi, ei := ev.eval(k.Expr, pairs[i].b)
			vj, ej := ev.eval(k.Expr, pairs[j].b)
			if ei != nil || ej != nil {
				continue
			}
			c := value.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range pairs {
		res.Rows[i] = pairs[i].row
	}
}

func applyDistinct(q *sparql.Query, res *Result) {
	if !q.Distinct && !q.Reduced {
		return
	}
	seen := map[string]bool{}
	var out [][]string
	for _, row := range res.Rows {
		k := packStrings(row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	res.Rows = out
}

func applySlice(q *sparql.Query, res *Result) {
	if q.Mods.HasOffset {
		off := int(q.Mods.Offset)
		if off >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[off:]
		}
	}
	if q.Mods.HasLimit && int64(len(res.Rows)) > q.Mods.Limit {
		res.Rows = res.Rows[:q.Mods.Limit]
	}
}
