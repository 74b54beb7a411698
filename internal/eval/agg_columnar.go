package eval

import (
	"strconv"
	"strings"

	"sparqlog/internal/exec"
	"sparqlog/internal/sparql"
)

// This file lowers GROUP BY / aggregate queries onto the columnar
// exec.GroupBy operator; every aggregate query compiles. planAggregate
// rewrites the query's aggregate expressions: every AggregateExpr
// reachable through BinaryExpr/UnaryExpr chains (the exact set the
// reference evaluator's evalAggregateExpr descends) is replaced by a
// hidden variable whose schema slot the GroupBy operator fills with the
// finalized aggregate, and the surrounding expression then evaluates
// per emitted group row through evalAggRow. What is not a slot yet is
// made one: expression group keys and computed aggregate arguments
// evaluate per input row into slots, as BIND does, and every variable a
// finishing expression reads is captured from the group's first input
// row, the member the reference evaluates it against.

// hiddenAggPrefix namespaces the compiler's hidden aggregate-output
// variables. A leading space cannot appear in a parsed variable name,
// so hidden slots can never collide with (or be projected as) user
// variables. The rune after the prefix marks the aggregate family:
// hiddenConcatMark for GROUP_CONCAT, whose result must stay
// non-numeric at the top level (it is a bare lexical value; every other
// aggregate's result re-parses faithfully).
const hiddenAggPrefix = " agg"

// hiddenInPrefix names the hidden input slots: expression group keys
// and computed aggregate arguments, evaluated per input row.
const hiddenInPrefix = " in"

const hiddenConcatMark = 'C'

// isHiddenAggVar reports whether name is a compiler-hidden aggregate
// output variable.
func isHiddenAggVar(name string) bool {
	return strings.HasPrefix(name, hiddenAggPrefix)
}

// orderKeyPlan is one compiled ORDER BY key.
type orderKeyPlan struct {
	expr sparql.Expr
	desc bool
	// errAsEmpty: an evaluation error yields the empty-string key (a
	// projected column's key is its cell's text, and an errored cell is
	// ""), instead of the skip-this-pair semantics of directly evaluated
	// keys.
	errAsEmpty bool
	// reparse re-derives the key value from its text (value.Text), the
	// way a projected column's cell reads.
	reparse bool
}

// aggPlan is a compiled aggregate finishing plan.
type aggPlan struct {
	// binds evaluate per input row, in order, before grouping: the
	// slots expression keys and computed aggregate arguments read.
	binds []*sparql.Bind
	spec  exec.GroupSpec
	// rq is the rewritten query: Select expressions with aggregates
	// replaced by hidden variables, SelectStar forced off, and
	// GroupBy/Having/OrderBy cleared (they compile to operators).
	rq *sparql.Query
	// having holds the rewritten HAVING constraints, one filter each.
	having []sparql.Expr
	order  []orderKeyPlan
}

// aggBuild accumulates aggregate specs and input binds during the
// rewrite, deduping identical aggregate expressions onto one hidden
// slot.
type aggBuild struct {
	ce    *colExec
	specs []exec.AggSpec
	binds []*sparql.Bind
	sigs  map[string]sparql.Expr // aggregate signature → hidden var leaf
}

// bind evaluates e into the named variable's slot per input row, as
// BIND does: an error or an empty lexical form binds nothing.
func (b *aggBuild) bind(name string, e sparql.Expr) {
	b.binds = append(b.binds, &sparql.Bind{Var: sparql.Variable(name), Expr: e})
	b.ce.schema.Slot(name)
}

// hidden names a fresh hidden input slot.
func (b *aggBuild) hidden() string {
	return hiddenInPrefix + strconv.Itoa(len(b.binds))
}

// aggKindOf maps a parsed aggregate onto its columnar kind. An unknown
// name reports false; it compiles as a SAMPLE that reads nothing, an
// expression error like the reference's.
func aggKindOf(a *sparql.AggregateExpr) (exec.AggKind, bool) {
	switch a.Name {
	case "COUNT":
		if a.Star {
			return exec.AggCountStar, true
		}
		return exec.AggCount, true
	case "SUM":
		return exec.AggSum, true
	case "MIN":
		return exec.AggMin, true
	case "MAX":
		return exec.AggMax, true
	case "AVG":
		return exec.AggAvg, true
	case "SAMPLE":
		return exec.AggSample, true
	case "GROUP_CONCAT":
		return exec.AggConcat, true
	}
	return exec.AggSample, false
}

// exprVar unwraps a bare-variable expression.
func exprVar(e sparql.Expr) (string, bool) {
	te, ok := e.(*sparql.TermExpr)
	if !ok || te.Term.Kind != sparql.TermVar {
		return "", false
	}
	return te.Term.Value, true
}

// aggVar returns the hidden-variable leaf standing for the aggregate,
// registering its spec (and schema slot) on first sight. A star form
// other than COUNT(*) and an unknown aggregate read no argument (Slot
// -1: SUM(*) is 0, GROUP_CONCAT(*) is "", the rest are errors); a
// computed argument reads the hidden slot it is evaluated into.
func (b *aggBuild) aggVar(a *sparql.AggregateExpr) sparql.Expr {
	kind, known := aggKindOf(a)
	slot, argName := -1, ""
	if !a.Star && known {
		name, ok := exprVar(a.Arg)
		if !ok {
			name = b.hidden()
			b.bind(name, a.Arg)
		}
		argName = name
		if s, ok := b.ce.schema.SlotOf(name); ok {
			slot = s
		}
	}
	sep := " "
	if a.HasSep {
		sep = a.Separator
	}
	distinct := a.Distinct && !a.Star
	sig := a.Name + "|" + strconv.FormatBool(a.Star) + "|" +
		strconv.FormatBool(distinct) + "|" + argName + "|" + sep
	if leaf, ok := b.sigs[sig]; ok {
		return leaf
	}
	mark := "N"
	if kind == exec.AggConcat {
		mark = string(hiddenConcatMark)
	}
	name := hiddenAggPrefix + mark + strconv.Itoa(len(b.specs))
	out := b.ce.schema.Slot(name)
	b.specs = append(b.specs, exec.AggSpec{
		Kind: kind, Slot: slot, Out: out, Distinct: distinct, Sep: sep,
	})
	leaf := &sparql.TermExpr{Term: sparql.Term{Kind: sparql.TermVar, Value: name}}
	if b.sigs == nil {
		b.sigs = map[string]sparql.Expr{}
	}
	b.sigs[sig] = leaf
	return leaf
}

// rewrite replaces aggregate nodes with hidden-variable leaves,
// descending exactly the Binary/Unary chains evalAggRow does — an
// aggregate nested anywhere else (a function argument, an IN list) is
// an expression error and must stay one.
func (b *aggBuild) rewrite(e sparql.Expr) sparql.Expr {
	switch n := e.(type) {
	case *sparql.AggregateExpr:
		return b.aggVar(n)
	case *sparql.BinaryExpr:
		return &sparql.BinaryExpr{Op: n.Op, L: b.rewrite(n.L), R: b.rewrite(n.R)}
	case *sparql.UnaryExpr:
		return &sparql.UnaryExpr{Op: n.Op, X: b.rewrite(n.X)}
	}
	return e
}

// planAggregate compiles the query's aggregate finishing onto columnar
// operators. Must run after collectVars and before the schema width
// freezes: it assigns the hidden slots.
func (ce *colExec) planAggregate(q *sparql.Query) *aggPlan {
	b := &aggBuild{ce: ce}
	ap := &aggPlan{}

	// Group keys. GROUP BY (expr AS ?k) first extends every input row
	// with ?k, as BIND would, and groups on ?k's slot, so ?k is bound in
	// the group; an expression key without an alias evaluates into a
	// hidden slot after those. A plain variable key the query never
	// binds is constantly unbound: it cannot split groups and packs
	// nothing.
	for _, gk := range q.Mods.GroupBy {
		if gk.AsVar {
			b.bind(gk.Var.Value, gk.Expr)
		}
	}
	carried := map[int]bool{} // slots the emitted group row sets
	for _, gk := range q.Mods.GroupBy {
		name, plain := exprVar(gk.Expr)
		switch {
		case gk.AsVar:
			name = gk.Var.Value
		case !plain:
			name = b.hidden()
			b.bind(name, gk.Expr)
		}
		if s, ok := ce.schema.SlotOf(name); ok {
			ap.spec.Keys = append(ap.spec.Keys, s)
			carried[s] = true
		}
	}
	ap.spec.EmptyGroup = len(q.Mods.GroupBy) == 0

	// first captures a variable's value in the group's first input row
	// (AggFirst), which is what the reference reads from the group's
	// first member: a projected plain variable that is not a key, and
	// every variable a finishing expression reads. Hidden slots (a
	// leading space) are the compiler's own and never captured.
	first := func(s int) {
		if !carried[s] && !strings.HasPrefix(ce.schema.Name(s), " ") {
			carried[s] = true
			b.specs = append(b.specs, exec.AggSpec{Kind: exec.AggFirst, Slot: s, Out: s})
		}
	}
	sel := make([]sparql.SelectItem, 0, len(q.Select))
	for _, it := range q.Select {
		if it.Expr != nil {
			it.Expr = b.rewrite(it.Expr)
		} else if s, ok := ce.schema.SlotOf(it.Var.Value); ok {
			first(s)
		}
		sel = append(sel, it)
	}
	for _, h := range q.Mods.Having {
		ap.having = append(ap.having, b.rewrite(h))
	}

	// ORDER BY: a key naming a projected item sorts by that column's
	// cell — substitute the item's rewritten expression and re-parse its
	// text, with evaluation errors keying as "" (an errored cell is
	// empty, not skipped). Everything else evaluates on the group row
	// with the direct err-skip semantics.
	for _, k := range q.Mods.OrderBy {
		if name, isVar := exprVar(k.Expr); isVar {
			col := -1
			for i, it := range q.Select {
				if it.Var.Value == name {
					col = i
					break
				}
			}
			if col >= 0 {
				ke := sel[col].Expr
				if ke == nil {
					ke = &sparql.TermExpr{Term: sel[col].Var}
				}
				ap.order = append(ap.order, orderKeyPlan{expr: ke, desc: k.Desc, errAsEmpty: true, reparse: true})
				continue
			}
		}
		ap.order = append(ap.order, orderKeyPlan{expr: b.rewrite(k.Expr), desc: k.Desc})
	}

	// An EXISTS is seeded with the whole group row, so it captures
	// every variable.
	capture := func(e sparql.Expr) {
		sparql.WalkExpr(e, func(x sparql.Expr) bool {
			switch n := x.(type) {
			case *sparql.ExistsExpr:
				for s := 0; s < ce.schema.Len(); s++ {
					first(s)
				}
			case *sparql.TermExpr:
				if s, ok := ce.schema.SlotOf(n.Term.Value); ok && n.Term.Kind == sparql.TermVar {
					first(s)
				}
			}
			return true
		})
	}
	for _, it := range sel {
		capture(it.Expr)
	}
	for _, h := range ap.having {
		capture(h)
	}
	for _, k := range ap.order {
		capture(k.expr)
	}

	ap.spec.Aggs = b.specs
	ap.binds = b.binds
	rq := *q
	rq.Select = sel
	rq.SelectStar = false
	mods := q.Mods
	mods.GroupBy, mods.Having, mods.OrderBy = nil, nil, nil
	rq.Mods = mods
	ap.rq = &rq
	return ap
}
