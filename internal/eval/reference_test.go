package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sparqlog/internal/exec"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// This file is the reference evaluator the differential suites hold the
// executor to: the map-binding evaluator the columnar executor
// replaced, kept as the specification. Solutions are
// map[string]string bindings flowing through the SPARQL algebra one
// operator at a time, every intermediate result materialized, and the
// solution modifiers run on string rows. It shares with the executor
// what is not evaluation strategy: the expression evaluator (expr.go),
// term resolution, compiled property paths, the planner's BGP order
// (reorderElems) and DESCRIBE's index read (describe). No binary can
// reach it.

// queryReference evaluates q on the reference evaluator under the same
// limits QueryWithLimits takes. The result carries
// Rows, not an Answer.
func queryReference(sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	if lim.MaxRows <= 0 {
		lim.MaxRows = DefaultMaxRows
	}
	ev := &evaluator{st: sn, prefixes: q.Prologue.PrefixMap(), lim: lim, ctx: context.Background()}
	res, err := ev.queryLegacy(q)
	if err != nil {
		return nil, err
	}
	res.Recovered = ev.recovered
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
	switch q.Type {
	case sparql.AskQuery:
		return &Result{Bool: len(rows) > 0}, nil
	case sparql.SelectQuery:
		return ev.finishSelect(q, rows)
	case sparql.ConstructQuery:
		return ev.finishConstruct(q, rows)
	case sparql.DescribeQuery:
		return ev.finishDescribe(q, rows)
	}
	return nil, fmt.Errorf("eval: unknown query type")
}

// finishConstruct orders and slices the solutions (§16.2), then
// instantiates the template per remaining solution, returning the
// constructed triples as three-column rows (s, p, o), deduplicated on
// the term triple (no joined-string keys).
func (ev *evaluator) finishConstruct(q *sparql.Query, rows []binding) (*Result, error) {
	rows = applySlice(q, ev.orderSolutions(q, rows))
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
	return res, nil
}

// finishDescribe orders and slices the solutions (§16.4), resolves the
// described resources — the constant terms, and the values the
// remaining solutions bind to the described variables (the in-scope
// ones, for DESCRIBE *) — to dictionary IDs and reads their triples
// through the executor's describe.
func (ev *evaluator) finishDescribe(q *sparql.Query, rows []binding) (*Result, error) {
	rows = applySlice(q, ev.orderSolutions(q, rows))
	targets := map[rdf.ID]bool{}
	add := func(term string) {
		if id, ok := ev.st.Lookup(term); ok {
			targets[id] = true
		}
	}
	for _, t := range q.DescribeTerms {
		if txt, ok := ev.termText(t); ok {
			add(txt)
		}
	}
	for name := range q.ProjectedVars() {
		for _, b := range rows {
			if v, bound := b.lookupVar(name); bound {
				add(v)
			}
		}
	}
	res := ev.describe(targets)
	res.Rows = res.Answer.Rows(ev.st)
	return res, nil
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
		objs, subs := st.PredicateEdges(p)
		for i := range subs {
			if consistent(subs[i], p, objs[i]) {
				emit(subs[i], p, objs[i])
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

func (ev *evaluator) path(pp *sparql.PathPattern, in []binding) ([]binding, error) {
	resolver := ev.pathResolver()
	// Compile once per call — the automaton is shared by every binding
	// below.
	cp := pathcomp.Compile(ev.st, pp.Path, resolver)
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
	sub, err := ev.queryLegacy(ss.Query)
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

func (ev *evaluator) finishSelect(q *sparql.Query, rows []binding) (*Result, error) {
	if hasAggregates(q) {
		return ev.finishAggregate(q, rows)
	}
	res := ev.projectSelect(q, rows)
	ev.applyOrder(q, res, rows)
	applyDistinct(q, res)
	res.Rows = applySlice(q, res.Rows)
	return res, nil
}

// projectSelect builds the projected result rows (no solution
// modifiers applied): plain variables copy through, expression
// projections evaluate per row.
func (ev *evaluator) projectSelect(q *sparql.Query, rows []binding) *Result {
	res := &Result{}
	if q.SelectStar {
		for v := range q.ProjectedVars() {
			res.Vars = append(res.Vars, v)
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
	members []binding
}

func (ev *evaluator) finishAggregate(q *sparql.Query, rows []binding) (*Result, error) {
	// Group rows by the GROUP BY keys.
	groups := map[string]*groupData{}
	var order []string
	for _, b := range rows {
		// GROUP BY (expr AS ?k) extends the solution with ?k before
		// grouping, as BIND would, and the group key is ?k's value.
		for _, gk := range q.Mods.GroupBy {
			if gk.AsVar {
				ext, _ := ev.bind(&sparql.Bind{Var: gk.Var, Expr: gk.Expr}, []binding{b}) // bind never fails
				b = ext[0]
			}
		}
		var key []string
		for _, gk := range q.Mods.GroupBy {
			e := gk.Expr
			if gk.AsVar {
				e = &sparql.TermExpr{Term: gk.Var}
			}
			v, err := ev.eval(e, b)
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
	res.Rows = applySlice(q, res.Rows)
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

func (ev *evaluator) applyOrder(q *sparql.Query, res *Result, rows []binding) {
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
	sort.SliceStable(pairs, func(i, j int) bool { return ev.orderLess(q, pairs[i].b, pairs[j].b) })
	for i := range pairs {
		res.Rows[i] = pairs[i].row
	}
}

// orderSolutions returns the solutions in ORDER BY order (a stable sort).
func (ev *evaluator) orderSolutions(q *sparql.Query, rows []binding) []binding {
	rows = slices.Clone(rows)
	sort.SliceStable(rows, func(i, j int) bool { return ev.orderLess(q, rows[i], rows[j]) })
	return rows
}

// orderLess is the ORDER BY comparator: the first key on which two
// solutions differ decides, and a key that fails to evaluate on either
// is skipped.
func (ev *evaluator) orderLess(q *sparql.Query, a, b env) bool {
	for _, k := range q.Mods.OrderBy {
		va, ea := ev.eval(k.Expr, a)
		vb, eb := ev.eval(k.Expr, b)
		if ea != nil || eb != nil {
			continue
		}
		c := value.Compare(va, vb)
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
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

// applySlice applies OFFSET and LIMIT to a sequence.
func applySlice[T any](q *sparql.Query, rows []T) []T {
	if q.Mods.HasOffset {
		rows = rows[min(q.Mods.Offset, int64(len(rows))):]
	}
	if q.Mods.HasLimit && int64(len(rows)) > q.Mods.Limit {
		rows = rows[:q.Mods.Limit]
	}
	return rows
}

func (b binding) lookupVar(name string) (string, bool) {
	v, ok := b[name]
	return v, ok
}

func (b binding) exists(ev *evaluator, p sparql.Pattern) (bool, error) {
	rows, err := ev.pattern(p, []binding{b})
	if err != nil {
		return false, err
	}
	return len(rows) > 0, nil
}

// evalAggregateExpr evaluates an expression that may contain aggregate
// nodes, over a group's member rows. Non-aggregate subexpressions are
// evaluated against the group's first member (they are group keys,
// constant within the group).
func (ev *evaluator) evalAggregateExpr(e sparql.Expr, members []binding) (value.Value, error) {
	if agg, ok := e.(*sparql.AggregateExpr); ok {
		return ev.computeAggregate(agg, members)
	}
	switch n := e.(type) {
	case *sparql.BinaryExpr:
		l, err := ev.evalAggregateExpr(n.L, members)
		if err != nil {
			return value.Value{}, err
		}
		r, err := ev.evalAggregateExpr(n.R, members)
		if err != nil {
			return value.Value{}, err
		}
		return binaryOverResults(n.Op, l, r)
	case *sparql.UnaryExpr:
		x, err := ev.evalAggregateExpr(n.X, members)
		if err != nil {
			return value.Value{}, err
		}
		return checked(value.Unary(n.Op, value.Text(x.Lex())))
	default:
		if len(members) == 0 {
			return value.Value{}, errEval
		}
		return ev.eval(e, members[0])
	}
}

func (ev *evaluator) computeAggregate(agg *sparql.AggregateExpr, members []binding) (value.Value, error) {
	var vals []value.Value
	if !agg.Star {
		// An argument reads as its lexical form, as a bound variable
		// does; a computed one that is empty binds nothing, as in BIND.
		_, plain := exprVar(agg.Arg)
		for _, m := range members {
			if v, err := ev.eval(agg.Arg, m); err == nil && (plain || v.Lex() != Unbound) {
				vals = append(vals, value.Text(v.Lex()))
			}
		}
	}
	if agg.Distinct {
		seen := map[string]bool{}
		var ded []value.Value
		for _, v := range vals {
			if !seen[v.Lex()] {
				seen[v.Lex()] = true
				ded = append(ded, v)
			}
		}
		vals = ded
	}
	switch agg.Name {
	case "COUNT":
		if agg.Star {
			return value.Num(float64(len(members))), nil
		}
		return value.Num(float64(len(vals))), nil
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		for _, v := range vals {
			if v.IsNum() {
				sum += v.Float()
				n++
			}
		}
		if agg.Name == "SUM" {
			return value.Num(sum), nil
		}
		if n == 0 {
			return value.Value{}, errEval
		}
		return value.Num(sum / float64(n)), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return value.Value{}, errEval
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := value.Compare(v, best)
			if agg.Name == "MIN" && c < 0 || agg.Name == "MAX" && c > 0 {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(vals) == 0 {
			return value.Value{}, errEval
		}
		return vals[0], nil
	case "GROUP_CONCAT":
		sep := " "
		if agg.HasSep {
			sep = agg.Separator
		}
		parts := make([]string, 0, len(vals))
		for _, v := range vals {
			parts = append(parts, v.Lex())
		}
		sort.Strings(parts) // deterministic output
		return value.Str(strings.Join(parts, sep)), nil
	}
	return value.Value{}, errEval
}

// evaluators are the executor and the reference, for suites that run
// each case on both and hold both to the same expectation.
var evaluators = []struct {
	name string
	run  func(*rdf.Snapshot, *sparql.Query, Limits) (*Result, error)
}{{"columnar", QueryWithLimits}, {"reference", queryReference}}
