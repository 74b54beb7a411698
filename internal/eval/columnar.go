package eval

import (
	"fmt"
	"slices"
	"strconv"

	"sparqlog/internal/exec"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// This file is the slot-based columnar executor, the one evaluator
// queries run on. The WHERE clause compiles once into a tree of
// internal/exec operators whose slots are the query's variable numbers
// (slot i is the Scope's Names[i], and the compiler's hidden names take
// the slots after them; plan variables are slots), and solutions flow
// through it as ID batches. Strings appear only at the edges:
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
// the solution modifiers stream for every query form — ORDER BY, the
// projection's expressions, DISTINCT on packed ID tuples, then
// OFFSET/LIMIT, which stops the pull once it is met (modifiers) — so a
// query with LIMIT computes only the rows it keeps and can succeed
// where the reference overflowed MaxRows computing rows it would have
// sliced away. SELECT * projects the WHERE clause's in-scope variables,
// a column set known at compile time.

// colExec is one columnar query execution.
type colExec struct {
	ev    *evaluator
	scope *sparql.Scope
	// hidden holds the compiler's own names (aggregates, computed
	// arguments and expression items, each with a leading space), slot
	// len(scope.Names)+i for hidden[i].
	hidden []string
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
	// group is the aggregation operator once finishSelect built it; from
	// then on expressions evaluate on its group rows (evalRow).
	group *exec.GroupBy
	// cols is a SELECT query's projection layout (columns).
	cols []column
}

type existsPlan struct {
	seed *exec.Seed
	root exec.Operator
	err  error
}

// rowEnv adapts one batch row to the expression evaluator's env: text
// materializes only when an expression touches a variable. Each compiled
// operator owns one, moved to each row it evaluates on (at); an EXISTS
// runs inner operators in the middle of the outer expression.
type rowEnv struct {
	ce  *colExec
	b   *exec.Batch
	row int
}

// at points r at row of b and returns it.
func (r *rowEnv) at(b *exec.Batch, row int) *rowEnv {
	r.b, r.row = b, row
	return r
}

func (r *rowEnv) lookupVar(name string) (string, bool) {
	slot, ok := r.ce.slotOf(name)
	if !ok {
		return "", false
	}
	id := r.b.Get(slot, r.row)
	if id == exec.Unbound {
		return "", false
	}
	return r.ce.pool.Text(id), true
}

func (r *rowEnv) exists(ev *evaluator, p sparql.Pattern) (bool, error) {
	return r.ce.exists(p, r.b, r.row)
}

// query evaluates q, whose Scope is sc, on a fresh execution over ev's
// snapshot; subqueries recurse through here. empty is ev.emptyUnder(sc),
// the static proof that q's WHERE clause matches nothing.
func (ev *evaluator) query(q *sparql.Query, sc *sparql.Scope, empty bool) (*Result, error) {
	ce := &colExec{ev: ev, scope: sc, pool: exec.NewPool(ev.st)}
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
	// Every variable has its slot before the first operator is built,
	// so every batch has the full width. Aggregate planning and the
	// projection's layout number their hidden names before the width
	// freezes.
	sel := q
	if q.Grouped() && (q.Type == sparql.SelectQuery || q.Type == sparql.AskQuery) {
		ce.aggPlan = ce.planAggregate(q)
		sel = ce.aggPlan.rq
	}
	if q.Type == sparql.SelectQuery {
		ce.cols = ce.columns(sel)
	}
	width := ce.width()
	var root exec.Operator = exec.NewUnit(width)
	var err error
	switch {
	case q.Where == nil:
		// No WHERE: the unit row flows straight to the modifiers.
	case empty:
		// The linter proved the WHERE clause can never produce a row
		// (unsatisfiable filter, empty VALUES, LIMIT 0 subquery, …):
		// short-circuit to an empty source without compiling the tree
		// or touching a single snapshot index (Result.Probes stays 0).
		root = ce.traced(exec.NewSeed(width), "empty: the linter proved the WHERE clause matches nothing")
	default:
		root, err = ce.compile(q.Where, root, make([]bool, width))
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
		root, _ = ce.grouped(q, root)
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

// slotOf returns the slot of a variable, of a blank node label written
// "_:label", or of a hidden name.
func (ce *colExec) slotOf(name string) (int, bool) {
	if i, ok := ce.scope.Find("", name); ok {
		return i, true
	}
	i := slices.Index(ce.hidden, name)
	return len(ce.scope.Names) + i, i >= 0
}

// termSlot returns the slot of a variable (a hidden one too) or of a
// blank node term.
func (ce *colExec) termSlot(t sparql.Term) (int, bool) {
	switch t.Kind {
	case sparql.TermVar:
		return ce.slotOf(t.Value)
	case sparql.TermBlank:
		return ce.scope.Find("_:", t.Value)
	}
	return 0, false
}

// slot is termSlot for a term that must have a slot: a variable or
// blank node the Scope numbers, or a hidden name. A miss is a compiler
// bug.
func (ce *colExec) slot(t sparql.Term) int {
	s, ok := ce.termSlot(t)
	if !ok {
		panic("eval: " + t.Value + " has no slot")
	}
	return s
}

// hide numbers a hidden name, in the next slot.
func (ce *colExec) hide(name string) int {
	ce.hidden = append(ce.hidden, name)
	return ce.width() - 1
}

// width is the number of slots. It is fixed once operators exist.
func (ce *colExec) width() int { return len(ce.scope.Names) + len(ce.hidden) }

// compile lowers a pattern onto an operator consuming in. bound holds,
// by slot, the variables possibly bound by already-compiled operators —
// planning input only, never correctness.
func (ce *colExec) compile(p sparql.Pattern, in exec.Operator, bound []bool) (exec.Operator, error) {
	ev := ce.ev
	width := ce.width()
	switch n := p.(type) {
	case *sparql.Group:
		// planned is what the group's runs of adjacent triples are
		// planned under: bound as the group starts, plus what each
		// earlier element can bind (markPatternVars), a FILTER's EXISTS
		// body included. bound itself skips FILTERs and takes a GRAPH
		// name as it is compiled, so the two differ. nil: no run of two
		// triples to plan.
		var planned []bool
		if !ev.lim.noReorder && hasRun(n.Elems) {
			planned = slices.Clone(bound)
		}
		var filters []sparql.Expr
		cur := in
		var err error
		for i := 0; i < len(n.Elems); {
			if j := runEnd(n.Elems, i); planned != nil && j-i > 1 {
				cur = ce.compileRun(n.Elems[i:j], cur, planned)
				for _, tp := range n.Elems[i:j] {
					ce.markPatternVars(tp, planned)
					ce.markPatternVars(tp, bound)
				}
				i = j
				continue
			}
			el := n.Elems[i]
			i++
			if planned != nil {
				ce.markPatternVars(el, planned)
			}
			if f, ok := el.(*sparql.Filter); ok {
				filters = append(filters, f.Constraint)
				continue
			}
			cur, err = ce.compile(el, cur, bound)
			if err != nil {
				return nil, err
			}
			ce.markPatternVars(el, bound)
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
		left, err := ce.compile(n.Left, lseed, slices.Clone(bound))
		if err != nil {
			return nil, err
		}
		right, err := ce.compile(n.Right, rseed, slices.Clone(bound))
		if err != nil {
			return nil, err
		}
		return exec.NewUnion(in, left, lseed, right, rseed), nil
	case *sparql.Optional:
		seed := exec.NewSeed(width)
		inner, err := ce.compile(n.Inner, seed, slices.Clone(bound))
		if err != nil {
			return nil, err
		}
		return exec.NewOptional(in, inner, seed), nil
	case *sparql.MinusGraph:
		// The removal set evaluates from the unit binding, lazily: a
		// MINUS whose input died never evaluates its body.
		inner, err := ce.compile(n.Inner, exec.NewUnit(width), make([]bool, width))
		if err != nil {
			return nil, err
		}
		return exec.NewMinus(in, inner), nil
	case *sparql.GraphGraph:
		cur := in
		if slot, ok := ce.termSlot(n.Name); ok {
			gid := ce.pool.Intern(DefaultGraph)
			cur = ce.traced(exec.NewApply(in, false, func(c *exec.Ctx, b *exec.Batch, row int, out *exec.Batch) error {
				if cv := b.Get(slot, row); cv != exec.Unbound && cv != gid {
					return nil
				}
				r := out.AppendRow(b, row)
				out.Set(slot, r, gid)
				return nil
			}), n)
			bound[slot] = true
		}
		return ce.compile(n.Inner, cur, bound)
	case *sparql.ServiceGraph:
		if !n.Silent {
			return ce.compile(n.Inner, in, bound)
		}
		seed := exec.NewSeed(width)
		inner, err := ce.compile(n.Inner, seed, slices.Clone(bound))
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
		slot := ce.slot(n.Var)
		expr, env := n.Expr, &rowEnv{ce: ce}
		return ce.traced(exec.NewApply(in, false, func(c *exec.Ctx, b *exec.Batch, row int, out *exec.Batch) error {
			v, err := ev.eval(expr, env.at(b, row))
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

// hasRun reports whether elems has two adjacent triple patterns.
func hasRun(elems []sparql.Pattern) bool {
	for i := range elems {
		if runEnd(elems, i)-i > 1 {
			return true
		}
	}
	return false
}

// runEnd returns the end of the run of triple patterns that starts at
// elems[i]: i itself when elems[i] is not one.
func runEnd(elems []sparql.Pattern, i int) int {
	for i < len(elems) {
		if _, ok := elems[i].(*sparql.TriplePattern); !ok {
			break
		}
		i++
	}
	return i
}

// compileRun joins a run of two or more adjacent triple patterns. Each
// resolves to its atom once; the planner orders the atoms with the slots
// as its variables, seeded with planned (the slots bound before the
// run), and the joins follow its order.
func (ce *colExec) compileRun(run []sparql.Pattern, in exec.Operator, planned []bool) exec.Operator {
	atoms := make([]plan.Atom, len(run))
	for i, el := range run {
		atoms[i] = ce.compileAtom(el.(*sparql.TriplePattern))
	}
	p := plan.Planner{Stats: ce.ev.st.Stats()}.PlanBound(atoms, len(planned), planned)
	if x := ce.ev.explain; x != nil {
		x.planned(run, p, atoms, planned, ce.scope.Names)
	}
	for _, ai := range p.Order {
		in = ce.traced(exec.NewJoin(ce.ev.st, in, atoms[ai]), run[ai])
	}
	return in
}

// markPatternVars marks the slots a group element can bind, for
// planning purposes only (a miss costs plan quality, never
// correctness; OPTIONAL/UNION variables are not guaranteed bound at
// runtime, but planning as if they were beats ignoring them). Nested
// patterns are walked recursively; a subquery's own variables have no
// slot unless the query names them too.
func (ce *colExec) markPatternVars(p sparql.Pattern, bound []bool) {
	mark := func(ts ...sparql.Term) {
		for _, t := range ts {
			if s, ok := ce.termSlot(t); ok {
				bound[s] = true
			}
		}
	}
	sparql.Walk(p, func(n sparql.Pattern) bool {
		switch x := n.(type) {
		case *sparql.TriplePattern:
			mark(x.S, x.P, x.O)
		case *sparql.PathPattern:
			mark(x.S, x.O)
		case *sparql.Bind:
			mark(x.Var)
		case *sparql.InlineData:
			mark(x.Vars...)
		}
		return true
	})
}

func (ce *colExec) compileFilter(e sparql.Expr, in exec.Operator) exec.Operator {
	env := &rowEnv{ce: ce}
	return ce.traced(exec.NewFilter(in, func(c *exec.Ctx, b *exec.Batch, row int) bool {
		v, err := ce.ev.eval(e, env.at(b, row))
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
		return plan.V(ce.slot(t))
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
		return exec.PathVar(ce.slot(t))
	}
	return exec.NewPath(ev.st, in, cp, end(pp.S), end(pp.O))
}

func (ce *colExec) compileValues(vd *sparql.InlineData, in exec.Operator) exec.Operator {
	slots := make([]int, len(vd.Vars))
	for i, v := range vd.Vars {
		slots[i] = ce.slot(v)
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
			sc := ce.scope.Sub(ss.Query)
			sub, err := ce.ev.query(ss.Query, sc, ce.ev.emptyUnder(sc))
			if err != nil {
				return err
			}
			// The subquery ran on a pool of its own over the same
			// snapshot: dictionary IDs carry over as they are, its
			// overflow terms re-intern into this execution's pool.
			ans := sub.Answer
			slots = make([]int, len(ans.Vars))
			for i, v := range ans.Vars {
				if s, ok := ce.slotOf(v); ok {
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
		seed := exec.NewSeed(ce.width())
		root, err := ce.compile(p, seed, make([]bool, ce.width()))
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

// finishConstruct applies ORDER BY, OFFSET and LIMIT to the solutions
// (§16.2) and instantiates the template per remaining solution on IDs:
// constants intern through the pool and variables read their slot. A
// triple with an unbound position is skipped, and each ID triple (one
// pool: equal IDs are equal text) is kept at its first instantiation,
// because a graph is a set.
func (ce *colExec) finishConstruct(q *sparql.Query, root exec.Operator) (*Result, error) {
	ref := func(t sparql.Term) plan.TermRef {
		if txt, ok := ce.ev.termText(t); ok {
			return plan.C(ce.pool.Intern(txt))
		}
		if s, ok := ce.termSlot(t); ok {
			return plan.V(s)
		}
		return plan.C(exec.Unbound)
	}
	tmpl := make([][3]plan.TermRef, len(q.Template))
	for i, tp := range q.Template {
		tmpl[i] = [3]plan.TermRef{ref(tp.S), ref(tp.P), ref(tp.O)}
	}
	root = ce.modifiers(q, root, nil)
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
	return answered(ce.pool.Answer([]string{"s", "p", "o"}, t.cols, t.n)), nil
}

// finishDescribe applies ORDER BY, OFFSET and LIMIT to the solutions
// (§16.4) and describes the constant terms and every value the kept
// solutions bind to a described variable (an in-scope one, for
// DESCRIBE *), collected as IDs.
func (ce *colExec) finishDescribe(q *sparql.Query, root exec.Operator) (*Result, error) {
	targets := map[rdf.ID]bool{}
	for _, t := range q.DescribeTerms {
		if txt, ok := ce.ev.termText(t); ok {
			targets[ce.pool.Intern(txt)] = true
		}
	}
	var slots []int
	for s := range ce.scope.Projected.All() {
		slots = append(slots, s)
	}
	root = ce.modifiers(q, root, nil)
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
	return ce.ev.describe(targets), nil
}

// finishSelect groups, then runs the solution modifiers, and drains
// the stream into the answer's ID columns.
func (ce *colExec) finishSelect(q *sparql.Query, root exec.Operator) (*Result, error) {
	root, q = ce.grouped(q, root)
	return ce.project(ce.modifiers(q, root, ce.cols), ce.cols)
}

// grouped runs GROUP BY and HAVING (planAggregate's rewrite) when the
// query is grouped, and returns the stream and the query it answers
// from there on: the rewrite, its aggregates in hidden slots.
func (ce *colExec) grouped(q *sparql.Query, root exec.Operator) (exec.Operator, *sparql.Query) {
	ap := ce.aggPlan
	if ap == nil {
		return root, q
	}
	for _, bn := range ap.binds {
		root, _ = ce.compile(bn, root, nil) // a BIND compiles without error
	}
	ce.group = exec.NewGroupBy(root, ap.spec, ce.pool.Text, ce.pool.Intern)
	root = ce.group
	for i, h := range ap.having {
		env := &rowEnv{ce: ce}
		root = ce.traced(exec.NewFilter(root, func(c *exec.Ctx, b *exec.Batch, row int) bool {
			v, err := ce.evalRow(h, env.at(b, row))
			return err == nil && v.Truthy()
		}), &q.Mods.Having[i])
	}
	return root, ap.rq
}

// evalRow evaluates an ORDER BY key, a HAVING constraint or a
// projection expression on the row of the stream env is at: a solution,
// or in an aggregate stream a group row.
func (ce *colExec) evalRow(e sparql.Expr, env *rowEnv) (value.Value, error) {
	if ce.group != nil {
		return ce.ev.evalAggRow(e, env, ce.group.SyntheticEmpty())
	}
	return ce.ev.eval(e, env)
}

// column is one projected column: the slot the answer copies and, for
// an expression item, the expression evaluated into that slot and the
// slot whose binding an evaluation error keeps (-1: none).
type column struct {
	name       string
	slot, keep int
	expr       sparql.Expr
}

// hiddenItemPrefix names the hidden slot projection item i evaluates
// into; the leading space keeps it apart from every user variable.
const hiddenItemPrefix = " item"

// columns lays out the projection, assigning the slots it needs (a
// variable nothing binds is a column of unbound cells). SELECT *
// projects the Scope's Projected variables, sorted. An expression item
// evaluates into a hidden slot; where it fails, the item keeps its
// alias's binding — except in an aggregate stream, where it projects
// unbound (a group row's binding of a WHERE variable the alias shadows
// is the first member's, not the item's), and where a rewritten item
// that is a bare hidden variable is that aggregate's finalized slot.
func (ce *colExec) columns(q *sparql.Query) []column {
	var cols []column
	if q.SelectStar {
		names := ce.scope.NamesOf(ce.scope.Projected)
		slices.Sort(names)
		for _, v := range names {
			cols = append(cols, column{name: v, slot: ce.slot(sparql.Variable(v)), keep: -1})
		}
		return cols
	}
	agg := ce.aggPlan != nil
	for i, it := range q.Select {
		c := column{name: it.Var.Value, keep: -1}
		hv, bare := exprVar(it.Expr)
		switch {
		case agg && bare && isHiddenAggVar(hv):
			c.slot = ce.slot(sparql.Variable(hv))
		case it.Expr != nil:
			c.slot, c.expr = ce.hide(hiddenItemPrefix+strconv.Itoa(i)), it.Expr
			if s, ok := ce.slotOf(it.Var.Value); ok && !agg {
				c.keep = s
			}
		default:
			c.slot = ce.slot(it.Var)
		}
		cols = append(cols, c)
	}
	return cols
}

// modifiers applies the solution modifiers as one operator chain for
// every query form: ORDER BY (exec.TopK, a bounded heap when a LIMIT
// caps the output and no DISTINCT needs the full order), then the
// projection's expression items and DISTINCT on the projected columns,
// then OFFSET/LIMIT. Expression items run before DISTINCT, which
// compares their values, and otherwise after the slice, so LIMIT k
// evaluates k rows' expressions. CONSTRUCT and DESCRIBE have no
// columns: their ORDER BY and slice apply to solutions.
func (ce *colExec) modifiers(q *sparql.Query, root exec.Operator, cols []column) exec.Operator {
	distinct := q.Distinct || q.Reduced
	off, lim := 0, -1
	if q.Mods.HasOffset {
		off = int(min(q.Mods.Offset, 1<<31))
	}
	if q.Mods.HasLimit {
		lim = int(min(q.Mods.Limit, 1<<31))
	}
	if okeys := ce.orderKeys(q); len(okeys) > 0 {
		keep := -1
		if lim >= 0 && !distinct {
			keep = off + lim
		}
		root = ce.orderBy(root, okeys, keep)
	}
	if distinct {
		slots := make([]int, len(cols))
		for i, c := range cols {
			slots[i] = c.slot
		}
		root = exec.NewDistinct(ce.items(root, cols), slots)
	}
	if off > 0 || lim >= 0 {
		root = exec.NewLimit(root, off, lim)
	}
	if !distinct {
		root = ce.items(root, cols)
	}
	ce.pulled(root)
	return root
}

// orderKeys returns the compiled ORDER BY keys: planAggregate's for an
// aggregate stream, the query's own otherwise.
func (ce *colExec) orderKeys(q *sparql.Query) []orderKeyPlan {
	if ce.aggPlan != nil {
		return ce.aggPlan.order
	}
	var okeys []orderKeyPlan
	for _, k := range q.Mods.OrderBy {
		okeys = append(okeys, orderKeyPlan{expr: k.Expr, desc: k.Desc})
	}
	return okeys
}

// orderBy sorts the stream on the keys with exec.TopK, keeping the first
// keep rows (-1: all).
func (ce *colExec) orderBy(root exec.Operator, keys []orderKeyPlan, keep int) exec.Operator {
	env := &rowEnv{ce: ce}
	keyFn := func(b *exec.Batch, row int, out []exec.SortKey) {
		for i, k := range keys {
			v, err := ce.evalRow(k.expr, env.at(b, row))
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
	return exec.NewTopK(root, keep, len(keys), keyFn, cmp)
}

// items evaluates the projection's expression items per row, on the
// row as it enters, into their hidden slots.
func (ce *colExec) items(root exec.Operator, cols []column) exec.Operator {
	var exprs []column
	label := "select"
	for _, c := range cols {
		if c.expr != nil {
			exprs = append(exprs, c)
			label += " (" + sparql.ExprString(c.expr) + " AS ?" + c.name + ")"
		}
	}
	if len(exprs) == 0 {
		return root
	}
	env := &rowEnv{ce: ce}
	return ce.traced(exec.NewApply(root, false, func(c *exec.Ctx, b *exec.Batch, row int, out *exec.Batch) error {
		r := out.AppendRow(b, row)
		for _, it := range exprs {
			id := exec.Unbound
			if it.keep >= 0 {
				id = b.Get(it.keep, row)
			}
			if v, err := ce.evalRow(it.expr, env.at(b, row)); err == nil {
				id = ce.pool.Intern(v.Lex())
			}
			out.Set(it.slot, r, id)
		}
		return nil
	}), label)
}

// project drains the finished stream into the answer, appending each
// projected slot's batch column as it is: no per-row value is built.
func (ce *colExec) project(root exec.Operator, cols []column) (*Result, error) {
	vars := make([]string, len(cols))
	t := &idTable{cols: make([][]rdf.ID, len(cols))}
	for j, c := range cols {
		vars[j] = c.name
	}
	err := ce.each(root, func(b *exec.Batch) {
		for j, c := range cols {
			t.cols[j] = append(t.cols[j], b.Col(c.slot)...)
		}
		t.n += b.Rows()
	})
	if err != nil {
		return nil, err
	}
	return answered(ce.pool.Answer(vars, t.cols, t.n)), nil
}

// idTable is an answer under construction: column-major cells and the
// row count (a table can have rows and no columns).
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
