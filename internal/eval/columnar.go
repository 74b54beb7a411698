package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sparqlog/internal/exec"
	"sparqlog/internal/lint"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// This file is the slot-based columnar executor, the one evaluator
// queries run on. The WHERE clause compiles once into a tree of
// internal/exec operators over a query-wide Schema (every variable
// gets a dense slot; plan variable indexes are slots), and solutions
// flow through it as ID batches. Strings appear only at the edges:
// constants resolve against the snapshot dictionary at compile time,
// computed values (BIND, VALUES, expression projections) intern into
// the execution's Pool overflow, and expressions (FILTER, ORDER BY
// keys, aggregation inputs) materialize text lazily per touched cell.
// Projection does not: the answer leaves as ID columns (exec.Answer)
// and stays that way through the result cache, until a serializer
// writes it; CONSTRUCT instantiates its template on IDs, and DESCRIBE
// collects its targets as IDs. The compiler mirrors the operator
// semantics of the map-binding reference evaluator in this package's
// tests — including evaluation order, row-budget checkpoints, and lazy
// evaluation of subqueries and MINUS bodies behind empty inputs — so
// the two produce identical solution multisets in identical order.
//
// Two deliberate behavioural improvements over the reference (both
// strictly enlarge the set of queries that succeed): ASK stops at the
// first solution instead of materializing the full WHERE result, and
// DISTINCT/LIMIT without ORDER BY stream — dedup on packed ID tuples,
// early exit once the limit is reached — so a query can succeed where
// the reference overflowed MaxRows computing rows it would have
// sliced away.

// colExec is one columnar query execution.
type colExec struct {
	ev     *evaluator
	schema *exec.Schema
	pool   *exec.Pool
	ec     *exec.Ctx

	// existsPlans caches the compiled subtree per EXISTS pattern node:
	// re-evaluated per row, compiled once.
	existsPlans map[sparql.Pattern]*existsPlan

	// recovers tracks the stats of every recover operator in the plan
	// (EXISTS subtrees included), harvested after execution into the
	// evaluator's silent-SERVICE-recovery count.
	recovers []*exec.OpStats

	// aggPlan is the compiled aggregate finishing plan (hidden slots,
	// rewritten expressions); nil when the query has no aggregation.
	aggPlan *aggPlan
}

type existsPlan struct {
	seed *exec.Seed
	root exec.Operator
	err  error
}

// rowEnv adapts one batch row to the expression evaluator's env: text
// materializes only when an expression touches a variable.
type rowEnv struct {
	ce  *colExec
	b   *exec.Batch
	row int
}

func (r rowEnv) lookupVar(name string) (string, bool) {
	slot, ok := r.ce.schema.SlotOf(name)
	if !ok {
		return "", false
	}
	id := r.b.Get(slot, r.row)
	if id == exec.Unbound {
		return "", false
	}
	return r.ce.pool.Text(id), true
}

func (r rowEnv) exists(ev *evaluator, p sparql.Pattern) (bool, error) {
	return r.ce.exists(p, r.b, r.row)
}

// query evaluates q on a fresh execution over ev's snapshot;
// subqueries recurse through here.
func (ev *evaluator) query(q *sparql.Query) (*Result, error) {
	ce := &colExec{ev: ev, schema: exec.NewSchema(), pool: exec.NewPool(ev.st)}
	ev.colPool = ce.pool
	// Harvest runtime recoveries after execution, whichever return path
	// is taken (subquery executions accumulate into the same evaluator).
	defer func() {
		for _, st := range ce.recovers {
			ev.recovered += int(st.Recovered)
		}
	}()
	ctx := ev.ctx
	if ctx == nil {
		return nil, fmt.Errorf("eval: nil context")
	}
	ce.ec = exec.NewCtx(ctx)
	ce.ec.MaxRows = ev.lim.MaxRows
	// Harvest the probe meter whichever return path is taken; subquery
	// executions build their own colExec and accumulate the same way.
	defer func() { ev.probes += ce.ec.Probes }()
	ce.collectVars(q)
	// Aggregate planning assigns the hidden slots, so it must
	// run while the schema is still open — before the width freezes.
	if q.Type == sparql.SelectQuery && hasAggregates(q) {
		ce.aggPlan = ce.planAggregate(q)
	}
	width := ce.schema.Len()
	var root exec.Operator = exec.NewUnit(width)
	var err error
	bound := map[string]bool{}
	switch {
	case q.Where == nil:
		// No WHERE: the unit row flows straight to the modifiers.
	case !ev.lim.noStatic && lint.EmptyUnder(q, ev.prefixes):
		// The linter proved the WHERE clause can never produce a row
		// (unsatisfiable filter, empty VALUES, LIMIT 0 subquery, …):
		// short-circuit to an empty source without compiling the tree
		// or touching a single snapshot index (Result.Probes stays 0).
		root = ce.traced(exec.NewSeed(width), "empty: the linter proved the WHERE clause matches nothing")
	default:
		root, err = ce.compile(q.Where, root, bound)
		if err != nil {
			return nil, err
		}
	}
	if q.TrailingValues != nil {
		root = ce.compileValues(q.TrailingValues, root)
	}
	ce.pulled(root)
	switch q.Type {
	case sparql.AskQuery:
		n, err := exec.Count(ce.ec, root, 1)
		if err != nil {
			return nil, err
		}
		return answered(exec.NewAnswer(ev.st, nil, nil, n > 0)), nil
	case sparql.SelectQuery:
		return ce.finishSelect(q, root)
	case sparql.ConstructQuery:
		return ce.finishConstruct(q, root)
	case sparql.DescribeQuery:
		return ce.finishDescribe(q, root)
	}
	return nil, fmt.Errorf("eval: unknown query type")
}

// collectVars assigns a slot to every variable the query can bind,
// anywhere: the WHERE tree (including EXISTS patterns inside filter
// and bind expressions, which sparql.Walk descends into), subquery
// projections, trailing VALUES, and EXISTS patterns inside projection
// and modifier expressions. The schema is complete before the first
// operator is built, so every batch has the full width.
func (ce *colExec) collectVars(q *sparql.Query) {
	addTerm := func(t sparql.Term) {
		if name, ok := varName(t); ok {
			ce.schema.Slot(name)
		}
	}
	handler := func(n sparql.Pattern) bool {
		switch x := n.(type) {
		case *sparql.TriplePattern:
			addTerm(x.S)
			addTerm(x.P)
			addTerm(x.O)
		case *sparql.PathPattern:
			addTerm(x.S)
			addTerm(x.O)
		case *sparql.Bind:
			ce.schema.Slot(x.Var.Value)
		case *sparql.InlineData:
			for _, v := range x.Vars {
				ce.schema.Slot(v.Value)
			}
		case *sparql.GraphGraph:
			addTerm(x.Name)
		case *sparql.SubSelect:
			// A subquery only exposes its projected variables; its
			// internal variables are scoped to its own execution and
			// must not widen every outer batch with dead columns.
			if x.Query != nil {
				for v := range x.Query.ProjectedVars() {
					ce.schema.Slot(v)
				}
			}
			return false
		}
		return true
	}
	if q.Where != nil {
		sparql.Walk(q.Where, handler)
	}
	if q.TrailingValues != nil {
		for _, v := range q.TrailingValues.Vars {
			ce.schema.Slot(v.Value)
		}
	}
	var exprs []sparql.Expr
	for _, it := range q.Select {
		exprs = append(exprs, it.Expr)
	}
	for _, k := range q.Mods.OrderBy {
		exprs = append(exprs, k.Expr)
	}
	for _, g := range q.Mods.GroupBy {
		exprs = append(exprs, g.Expr)
	}
	exprs = append(exprs, q.Mods.Having...)
	for _, e := range exprs {
		if e != nil {
			sparql.WalkExprPatterns(e, handler)
		}
	}
}

// slot returns the slot of a variable collected by collectVars; a miss
// is a compiler bug (the schema is sealed once operators exist).
func (ce *colExec) slot(name string) int {
	s, ok := ce.schema.SlotOf(name)
	if !ok {
		panic("eval: variable " + name + " missed by collectVars")
	}
	return s
}

// compile lowers a pattern onto an operator consuming in. bound tracks
// variables possibly bound by already-compiled operators — planning
// input only, never correctness.
func (ce *colExec) compile(p sparql.Pattern, in exec.Operator, bound map[string]bool) (exec.Operator, error) {
	ev := ce.ev
	width := ce.schema.Len()
	switch n := p.(type) {
	case *sparql.Group:
		elems := n.Elems
		if !ev.lim.noReorder {
			elems = ev.reorderElems(elems, copyBound(bound))
		}
		var filters []sparql.Expr
		cur := in
		var err error
		for _, el := range elems {
			if f, ok := el.(*sparql.Filter); ok {
				filters = append(filters, f.Constraint)
				continue
			}
			cur, err = ce.compile(el, cur, bound)
			if err != nil {
				return nil, err
			}
			ev.markPatternVars(el, bound)
		}
		for _, f := range filters {
			cur = ce.compileFilter(f, cur)
		}
		return cur, nil
	case *sparql.TriplePattern:
		return ce.traced(exec.NewJoin(ev.st, in, ce.compileAtom(n)), n), nil
	case *sparql.PathPattern:
		return ce.traced(ce.compilePath(n, in), n), nil
	case *sparql.Union:
		lseed, rseed := exec.NewSeed(width), exec.NewSeed(width)
		left, err := ce.compile(n.Left, lseed, copyBound(bound))
		if err != nil {
			return nil, err
		}
		right, err := ce.compile(n.Right, rseed, copyBound(bound))
		if err != nil {
			return nil, err
		}
		return exec.NewUnion(in, left, lseed, right, rseed), nil
	case *sparql.Optional:
		seed := exec.NewSeed(width)
		inner, err := ce.compile(n.Inner, seed, copyBound(bound))
		if err != nil {
			return nil, err
		}
		return exec.NewOptional(in, inner, seed), nil
	case *sparql.MinusGraph:
		// The removal set evaluates from the unit binding, lazily: a
		// MINUS whose input died never evaluates its body.
		inner, err := ce.compile(n.Inner, exec.NewUnit(width), map[string]bool{})
		if err != nil {
			return nil, err
		}
		return exec.NewMinus(in, inner), nil
	case *sparql.GraphGraph:
		cur := in
		if v, ok := varName(n.Name); ok {
			slot := ce.slot(v)
			gid := ce.pool.Intern(DefaultGraph)
			cur = ce.traced(exec.NewApply(in, false, func(c *exec.Ctx, b *exec.Batch, row int, out *exec.Batch) error {
				if cv := b.Get(slot, row); cv != exec.Unbound && cv != gid {
					return nil
				}
				r := out.AppendRow(b, row)
				out.Set(slot, r, gid)
				return nil
			}), n)
			bound[v] = true
		}
		return ce.compile(n.Inner, cur, bound)
	case *sparql.ServiceGraph:
		if !n.Silent {
			return ce.compile(n.Inner, in, bound)
		}
		seed := exec.NewSeed(width)
		inner, err := ce.compile(n.Inner, seed, copyBound(bound))
		if err != nil {
			// SILENT swallows the failure and the input passes through.
			// Counted as a recovery: compile-time failure is no-op
			// federation too.
			ev.recovered++
			return in, nil
		}
		op := exec.NewRecover(in, inner, seed)
		ce.recovers = append(ce.recovers, op.Stats())
		return ce.traced(op, n), nil
	case *sparql.Filter:
		return ce.compileFilter(n.Constraint, in), nil
	case *sparql.Bind:
		slot := ce.slot(n.Var.Value)
		expr := n.Expr
		return ce.traced(exec.NewApply(in, false, func(c *exec.Ctx, b *exec.Batch, row int, out *exec.Batch) error {
			v, err := ev.eval(expr, rowEnv{ce, b, row})
			r := out.AppendRow(b, row)
			if err == nil {
				// Intern maps the empty lexical form to Unbound; skip
				// the write so an existing binding is not clobbered.
				if id := ce.pool.Intern(v.Lex()); id != exec.Unbound {
					out.Set(slot, r, id)
				}
			}
			return nil
		}), n), nil
	case *sparql.InlineData:
		return ce.compileValues(n, in), nil
	case *sparql.SubSelect:
		return ce.compileSubselect(n, in), nil
	}
	return nil, fmt.Errorf("eval: unsupported pattern %T", p)
}

// traced records the query part op was compiled from (a pattern, an
// expression or a fixed label), which Explain labels op's line with. On
// every other execution it only returns op.
func (ce *colExec) traced(op exec.Operator, src any) exec.Operator {
	if x := ce.ev.explain; x != nil {
		x.src[op] = src
	}
	return op
}

// pulled records root as the operator the outermost execution drains,
// for Explain; subqueries, which execute while it is pulled, do not
// replace it.
func (ce *colExec) pulled(root exec.Operator) {
	if x := ce.ev.explain; x != nil && (x.top == nil || x.top == ce) {
		x.top, x.root = ce, root
	}
}

func copyBound(bound map[string]bool) map[string]bool {
	out := make(map[string]bool, len(bound))
	for k, v := range bound {
		out[k] = v
	}
	return out
}

func (ce *colExec) compileFilter(e sparql.Expr, in exec.Operator) exec.Operator {
	return ce.traced(exec.NewFilter(in, func(c *exec.Ctx, b *exec.Batch, row int) bool {
		v, err := ce.ev.eval(e, rowEnv{ce, b, row})
		return err == nil && v.Truthy()
	}), e)
}

// compileAtom resolves a triple pattern against the dictionary:
// variables become slot references, constants become IDs (or the
// impossible constant when absent — such an atom matches nothing).
func (ce *colExec) compileAtom(tp *sparql.TriplePattern) plan.Atom {
	ref := func(t sparql.Term) plan.TermRef {
		if txt, ok := ce.ev.termText(t); ok {
			if id, known := ce.ev.st.Lookup(txt); known {
				return plan.C(id)
			}
			return plan.C(^rdf.ID(0))
		}
		name, _ := varName(t)
		return plan.V(ce.slot(name))
	}
	return plan.Atom{S: ref(tp.S), P: ref(tp.P), O: ref(tp.O)}
}

// compilePath compiles the path expression once per pattern and routes
// its sorted []rdf.ID results straight into batch columns — no per-node
// string round trips.
func (ce *colExec) compilePath(pp *sparql.PathPattern, in exec.Operator) exec.Operator {
	ev := ce.ev
	cp := pathcomp.Compile(ev.st, pp.Path, ev.pathResolver())
	end := func(t sparql.Term) exec.PathEnd {
		if txt, ok := ev.termText(t); ok {
			id, known := ev.st.Lookup(txt)
			return exec.PathConst(id, known)
		}
		name, _ := varName(t)
		return exec.PathVar(ce.slot(name))
	}
	return exec.NewPath(ev.st, in, cp, end(pp.S), end(pp.O))
}

func (ce *colExec) compileValues(vd *sparql.InlineData, in exec.Operator) exec.Operator {
	slots := make([]int, len(vd.Vars))
	for i, v := range vd.Vars {
		slots[i] = ce.slot(v.Value)
	}
	rows := make([][]rdf.ID, len(vd.Rows))
	for ri, row := range vd.Rows {
		r := make([]rdf.ID, len(vd.Vars))
		for ci := range vd.Vars {
			r[ci] = exec.Unbound
			if ci < len(vd.Undef[ri]) && vd.Undef[ri][ci] {
				continue
			}
			if ci >= len(row) {
				continue
			}
			txt, _ := ce.ev.termText(row[ci])
			r[ci] = ce.pool.Intern(txt)
		}
		rows[ri] = r
	}
	return ce.traced(exec.NewTableJoin(in, slots, rows), vd)
}

// compileSubselect evaluates the subquery lazily — on the first input
// row, so a dead upstream skips it entirely — then joins its
// materialized rows by projected variable, interning row text back to
// IDs once.
func (ce *colExec) compileSubselect(ss *sparql.SubSelect, in exec.Operator) exec.Operator {
	loaded := false
	var slots []int
	var rows [][]rdf.ID
	return ce.traced(exec.NewApply(in, true, func(c *exec.Ctx, b *exec.Batch, row int, out *exec.Batch) error {
		if !loaded {
			sub, err := ce.ev.query(ss.Query)
			if err != nil {
				return err
			}
			// The subquery ran on a pool of its own over the same
			// snapshot: dictionary IDs carry over as they are, its
			// overflow terms re-intern into this execution's pool.
			ans := sub.Answer
			slots = make([]int, len(ans.Vars))
			for i, v := range ans.Vars {
				if s, ok := ce.schema.SlotOf(v); ok {
					slots[i] = s
				} else {
					slots[i] = -1
				}
			}
			cells := make([]rdf.ID, ans.Len()*len(slots))
			rows = make([][]rdf.ID, ans.Len())
			for ri := range rows {
				rows[ri] = cells[ri*len(slots) : (ri+1)*len(slots)]
			}
			for i := range slots {
				for ri, id := range ans.Col(i) {
					if id != exec.Unbound && !ce.pool.InStore(id) {
						id = ce.pool.Intern(ans.Term(ce.ev.st, id))
					}
					rows[ri][i] = id
				}
			}
			loaded = true
		}
		for _, trow := range rows {
			ok := true
			for i, v := range trow {
				if v == exec.Unbound || slots[i] < 0 {
					continue
				}
				if cur := b.Get(slots[i], row); cur != exec.Unbound && cur != v {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			r := out.AppendRow(b, row)
			for i, v := range trow {
				if v != exec.Unbound && slots[i] >= 0 {
					out.Set(slots[i], r, v)
				}
			}
		}
		return nil
	}), ss)
}

// exists evaluates an EXISTS pattern under one row, compiling the
// subtree once per pattern node and reseeding it per evaluation. The
// subtree is drained fully — short-circuiting would diverge from the
// reference when the body overflows the row budget.
func (ce *colExec) exists(p sparql.Pattern, b *exec.Batch, row int) (bool, error) {
	sp, ok := ce.existsPlans[p]
	if !ok {
		seed := exec.NewSeed(ce.schema.Len())
		root, err := ce.compile(p, seed, map[string]bool{})
		sp = &existsPlan{seed: seed, root: root, err: err}
		if ce.existsPlans == nil {
			ce.existsPlans = map[sparql.Pattern]*existsPlan{}
		}
		ce.existsPlans[p] = sp
	}
	if sp.err != nil {
		return false, sp.err
	}
	sp.seed.SetRow(b, row)
	sp.root.Reset()
	n, err := exec.Count(ce.ec, sp.root, 0)
	if err != nil {
		return false, err
	}
	return n > 0, nil
}

// each pulls the stream to its end, handing every batch to fn.
func (ce *colExec) each(root exec.Operator, fn func(*exec.Batch)) error {
	//ctxpoll:ignore bounded by the stream: every exec operator's Next polls ce.ec
	for {
		b, err := root.Next(ce.ec)
		if b == nil || err != nil {
			return err
		}
		fn(b)
	}
}

// finishConstruct instantiates the template per solution on IDs:
// constants intern through the pool and variables read their slot. A
// triple with an unbound position is skipped, and each ID triple (one
// pool: equal IDs are equal text) is kept at its first instantiation;
// OFFSET and LIMIT slice that sequence.
func (ce *colExec) finishConstruct(q *sparql.Query, root exec.Operator) (*Result, error) {
	ref := func(t sparql.Term) plan.TermRef {
		if txt, ok := ce.ev.termText(t); ok {
			return plan.C(ce.pool.Intern(txt))
		}
		name, _ := varName(t)
		if s, ok := ce.schema.SlotOf(name); ok {
			return plan.V(s)
		}
		return plan.C(exec.Unbound)
	}
	tmpl := make([][3]plan.TermRef, len(q.Template))
	for i, tp := range q.Template {
		tmpl[i] = [3]plan.TermRef{ref(tp.S), ref(tp.P), ref(tp.O)}
	}
	t := &idTable{cols: make([][]rdf.ID, 3)}
	seen := map[[3]rdf.ID]bool{}
	err := ce.each(root, func(b *exec.Batch) {
		for r := 0; r < b.Rows(); r++ {
			for _, refs := range tmpl {
				var k [3]rdf.ID
				for i, tr := range refs {
					k[i] = tr.ID
					if tr.IsVar {
						k[i] = b.Get(tr.Var, r)
					}
				}
				if !slices.Contains(k[:], exec.Unbound) && !seen[k] {
					seen[k] = true
					t.add(k[:]...)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	t.slice(q)
	return answered(ce.pool.Answer([]string{"s", "p", "o"}, t.cols, t.n)), nil
}

// finishDescribe collects the described resources as IDs — the
// constant describe terms, and every value the stream binds to a
// described variable (to any variable, for DESCRIBE *) — and describes
// them.
func (ce *colExec) finishDescribe(q *sparql.Query, root exec.Operator) (*Result, error) {
	targets := map[rdf.ID]bool{}
	var slots []int
	for _, t := range q.DescribeTerms {
		if txt, ok := ce.ev.termText(t); ok {
			targets[ce.pool.Intern(txt)] = true
		} else if name, ok := varName(t); ok {
			if s, ok := ce.schema.SlotOf(name); ok {
				slots = append(slots, s)
			}
		}
	}
	for s := 0; q.DescribeStar && s < ce.schema.Len(); s++ {
		slots = append(slots, s)
	}
	err := ce.each(root, func(b *exec.Batch) {
		for _, s := range slots {
			for _, id := range b.Col(s) {
				targets[id] = true
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return ce.ev.describe(q, targets), nil
}

// finishSelect applies solution modifiers as columnar operators where
// the compiled plans allow: GROUP BY/HAVING through exec.GroupBy plus
// per-group filters (planAggregate's rewrite), ORDER BY through
// exec.TopK (bounded-heap when a LIMIT caps the output), DISTINCT
// streaming on packed ID tuples, and LIMIT/OFFSET stopping the pull
// early; then project fills the answer's ID columns, and whatever
// DISTINCT or slice the stream could not apply (SELECT *, expression
// projections) runs on those.
func (ce *colExec) finishSelect(q *sparql.Query, root exec.Operator) (*Result, error) {
	ev := ce.ev
	agg := hasAggregates(q)
	ap := ce.aggPlan
	var gb *exec.GroupBy
	var okeys []orderKeyPlan
	if agg {
		for _, bn := range ap.binds {
			root, _ = ce.compile(bn, root, nil) // a BIND compiles without error
		}
		gb = exec.NewGroupBy(root, ap.spec, ce.pool.Text, ce.pool.Intern)
		root = gb
		for i, h := range ap.having {
			h := h
			root = ce.traced(exec.NewFilter(root, func(c *exec.Ctx, b *exec.Batch, row int) bool {
				v, err := ev.evalAggRow(h, rowEnv{ce, b, row}, gb.SyntheticEmpty())
				return err == nil && v.Truthy()
			}), &q.Mods.Having[i])
		}
		okeys = ap.order
		// From here on the stream is the rewritten query's: aggregates
		// live in hidden slots, grouping and having are done.
		q = ap.rq
	} else {
		for _, k := range q.Mods.OrderBy {
			okeys = append(okeys, orderKeyPlan{expr: k.Expr, desc: k.Desc})
		}
	}
	evalKey := func(e sparql.Expr, b *exec.Batch, row int) (value.Value, error) {
		if agg {
			return ev.evalAggRow(e, rowEnv{ce, b, row}, gb.SyntheticEmpty())
		}
		return ev.eval(e, rowEnv{ce, b, row})
	}
	if len(okeys) > 0 {
		// Bound the sort when a LIMIT caps the output and nothing
		// between the sort and the slice (DISTINCT, SELECT *'s
		// variable collection over all rows) needs the full set.
		keep := -1
		if q.Mods.HasLimit && !q.Distinct && !q.Reduced && !q.SelectStar &&
			q.Mods.Limit < 1<<31 && q.Mods.Offset < 1<<31 {
			k := q.Mods.Limit
			if q.Mods.HasOffset {
				k += q.Mods.Offset
			}
			keep = int(k)
		}
		keys := okeys
		keyFn := func(b *exec.Batch, row int, out []exec.SortKey) {
			for i, k := range keys {
				v, err := evalKey(k.expr, b, row)
				if err != nil {
					if k.errAsEmpty {
						// A projected-column key reads the cell text,
						// and an errored cell is "" — a valid key.
						out[i] = exec.SortKey{}
					} else {
						out[i] = exec.SortKey{Err: true}
					}
					continue
				}
				if k.reparse {
					v = value.Text(v.Lex())
				}
				out[i] = exec.SortKey{V: v}
			}
		}
		cmp := func(a, b []exec.SortKey) int {
			for i := range keys {
				if a[i].Err || b[i].Err {
					continue
				}
				c := value.Compare(a[i].V, b[i].V)
				if c == 0 {
					continue
				}
				if keys[i].desc {
					return -c
				}
				return c
			}
			return 0
		}
		root = exec.NewTopK(root, keep, len(keys), keyFn, cmp)
	}
	streamDistinct, streamSliced := false, false
	if !q.SelectStar {
		if (q.Distinct || q.Reduced) && allPlainVars(q.Select) {
			var slots []int
			for _, it := range q.Select {
				if s, ok := ce.schema.SlotOf(it.Var.Value); ok {
					slots = append(slots, s)
				}
				// A projected variable the query never binds is
				// constant-unbound across rows; it cannot split
				// dedup classes, so it is simply left out of the key.
			}
			root = exec.NewDistinct(root, slots)
			streamDistinct = true
		}
		if (q.Mods.HasLimit || q.Mods.HasOffset) && (streamDistinct || !(q.Distinct || q.Reduced)) {
			off, lim := 0, -1
			if q.Mods.HasOffset {
				off = int(q.Mods.Offset)
			}
			if q.Mods.HasLimit {
				lim = int(q.Mods.Limit)
			}
			root = exec.NewLimit(root, off, lim)
			streamSliced = true
		}
	}
	ce.pulled(root)
	t, vars, err := ce.project(q, root, agg, evalKey)
	if err != nil {
		return nil, err
	}
	// TopK already emitted sorted order (okeys covers every ORDER BY
	// key); what the stream could not do runs on the ID tuples.
	if !streamDistinct && (q.Distinct || q.Reduced) {
		t.distinct()
	}
	if !streamSliced {
		t.slice(q)
	}
	return answered(ce.pool.Answer(vars, t.cols, t.n)), nil
}

// outCol is one projected column: a slot to copy (-1: the variable is
// never bound), or an expression to evaluate per row.
type outCol struct {
	slot int
	expr sparql.Expr
}

// project drains the finished stream into answer columns, appending
// each projected slot's batch column as it is: no per-row value is
// built for a plain variable. Expression items evaluate per row and
// intern their text into the pool; an item whose evaluation fails keeps
// the binding its alias already had, if any — except in an aggregate
// stream, where it projects unbound (a group row's binding of a WHERE
// variable the alias shadows is the first member's, not the item's).
// There a rewritten item that is a bare hidden variable is that
// aggregate's finalized slot. SELECT * projects the variables bound in
// some row.
func (ce *colExec) project(q *sparql.Query, root exec.Operator, agg bool, evalItem func(sparql.Expr, *exec.Batch, int) (value.Value, error)) (*idTable, []string, error) {
	var vars []string
	var outs []outCol
	for s := 0; q.SelectStar && s < ce.schema.Len(); s++ {
		if name := ce.schema.Name(s); !strings.HasPrefix(name, "_:") {
			vars = append(vars, name)
		}
	}
	sort.Strings(vars)
	for _, v := range vars {
		outs = append(outs, outCol{slot: ce.slot(v)})
	}
	for _, it := range q.Select {
		oc, name := outCol{slot: -1, expr: it.Expr}, it.Var.Value
		if hv, ok := exprVar(it.Expr); agg && ok && isHiddenAggVar(hv) {
			name, oc.expr = hv, nil
		}
		if s, ok := ce.schema.SlotOf(name); ok && (oc.expr == nil || !agg) {
			oc.slot = s
		}
		vars, outs = append(vars, it.Var.Value), append(outs, oc)
	}
	t := &idTable{cols: make([][]rdf.ID, len(outs))}
	err := ce.each(root, func(b *exec.Batch) {
		for j, oc := range outs {
			if oc.expr == nil && oc.slot >= 0 {
				t.cols[j] = append(t.cols[j], b.Col(oc.slot)...)
				continue
			}
			for r := 0; r < b.Rows(); r++ {
				id := exec.Unbound
				if oc.slot >= 0 {
					id = b.Get(oc.slot, r)
				}
				if oc.expr != nil {
					if v, err := evalItem(oc.expr, b, r); err == nil {
						id = ce.pool.Intern(v.Lex())
					}
				}
				t.cols[j] = append(t.cols[j], id)
			}
		}
		t.n += b.Rows()
	})
	if err != nil || !q.SelectStar {
		return t, vars, err
	}
	kept := 0
	for j, col := range t.cols {
		if slices.ContainsFunc(col, func(id rdf.ID) bool { return id != exec.Unbound }) {
			vars[kept], t.cols[kept] = vars[j], col
			kept++
		}
	}
	if kept == 0 {
		return &idTable{n: t.n}, nil, nil
	}
	t.cols = t.cols[:kept]
	return t, vars[:kept], nil
}

// idTable is an answer under construction: column-major cells and the
// row count (a table can have rows and no columns). Every cell comes
// from one pool, where equal text is equal ID, so DISTINCT and
// LIMIT/OFFSET on the ID tuples are DISTINCT and LIMIT/OFFSET on the
// rows' text without reading any.
type idTable struct {
	cols [][]rdf.ID
	n    int
}

// add appends one row.
func (t *idTable) add(row ...rdf.ID) {
	for j, id := range row {
		t.cols[j] = append(t.cols[j], id)
	}
	t.n++
}

// distinct keeps each row's first occurrence, in order.
func (t *idTable) distinct() {
	seen := make(map[string]struct{}, t.n)
	var key []byte
	kept := 0
	for i := 0; i < t.n; i++ {
		key = key[:0]
		for _, col := range t.cols {
			key = append(key, byte(col[i]), byte(col[i]>>8), byte(col[i]>>16), byte(col[i]>>24))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		for _, col := range t.cols {
			col[kept] = col[i]
		}
		kept++
	}
	t.cut(0, kept)
}

// slice applies OFFSET and LIMIT.
func (t *idTable) slice(q *sparql.Query) {
	lo, hi := 0, t.n
	if q.Mods.HasOffset {
		lo = int(min(q.Mods.Offset, int64(t.n)))
	}
	if q.Mods.HasLimit && int64(hi-lo) > q.Mods.Limit {
		hi = lo + int(q.Mods.Limit)
	}
	t.cut(lo, hi)
}

// cut keeps rows [lo, hi). What is kept is copied out, so a small page
// does not hold the whole table's memory in a cache entry budgeted for
// the page.
func (t *idTable) cut(lo, hi int) {
	if hi-lo == t.n {
		return
	}
	for j, col := range t.cols {
		t.cols[j] = append([]rdf.ID(nil), col[lo:hi]...)
	}
	t.n = hi - lo
}

// allPlainVars reports whether every projection item is a bare
// variable (no AS expressions).
func allPlainVars(items []sparql.SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil {
			return false
		}
	}
	return true
}
