package eval

import (
	"strconv"
	"strings"

	"sparqlog/internal/exec"
	"sparqlog/internal/sparql"
)

// This file lowers GROUP BY / aggregate queries onto the columnar
// exec.GroupBy operator. planAggregate rewrites the query's aggregate
// expressions: every AggregateExpr reachable through BinaryExpr/
// UnaryExpr chains (the exact set the legacy evalAggregateExpr
// descends) is replaced by a hidden variable whose schema slot the
// GroupBy operator fills with the finalized aggregate, and the
// surrounding expression then evaluates per emitted group row through
// evalAggRow. Shapes whose group-row evaluation could diverge from the
// legacy members[0] semantics — expression group keys, EXISTS in a
// finishing expression, free variables the group row cannot carry —
// return nil and take the legacy-shape finisher over drained rows, so
// the columnar path never has to approximate.

// hiddenAggPrefix namespaces the compiler's hidden aggregate-output
// variables. A leading space cannot appear in a parsed variable name,
// so hidden slots can never collide with (or be projected as) user
// variables. The rune after the prefix marks the aggregate family:
// hiddenConcatMark for GROUP_CONCAT, whose result must stay
// non-numeric at the top level (legacy computeAggregate returns a bare
// lexical value; every other aggregate's result re-parses faithfully).
const hiddenAggPrefix = " agg"

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
	// errAsEmpty: an evaluation error yields the empty-string key (the
	// legacy orderAggregated reads a projected column's cell text, and
	// an errored cell is ""), instead of the skip-this-pair semantics
	// of directly evaluated keys.
	errAsEmpty bool
	// reparse re-derives the key value from its text (value.Text), the
	// way the legacy path re-parses a projected column's cell.
	reparse bool
}

// aggPlan is a compiled aggregate finishing plan.
type aggPlan struct {
	spec exec.GroupSpec
	// rq is the rewritten query: Select expressions with aggregates
	// replaced by hidden variables, SelectStar forced off, and
	// GroupBy/Having/OrderBy cleared (they compile to operators).
	rq *sparql.Query
	// having holds the rewritten HAVING constraints, one filter each.
	having []sparql.Expr
	order  []orderKeyPlan
}

// aggBuild accumulates aggregate specs during the rewrite, deduping
// identical aggregate expressions onto one hidden slot.
type aggBuild struct {
	ce    *colExec
	specs []exec.AggSpec
	sigs  map[string]sparql.Expr // aggregate signature → hidden var leaf
}

// aggKindOf maps a parsed aggregate onto its columnar kind; false
// routes the query to the legacy-shape finisher (unknown aggregate
// names there evaluate to an expression error).
func aggKindOf(a *sparql.AggregateExpr) (exec.AggKind, bool) {
	if a.Star {
		// Only COUNT(*) counts rows; other Star forms keep legacy
		// semantics (SUM(*) = 0, MIN(*) = error, ...).
		return exec.AggCountStar, a.Name == "COUNT"
	}
	switch a.Name {
	case "COUNT":
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
	return 0, false
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
// registering its spec (and schema slot) on first sight.
func (b *aggBuild) aggVar(a *sparql.AggregateExpr) (sparql.Expr, bool) {
	kind, ok := aggKindOf(a)
	if !ok {
		return nil, false
	}
	slot, argName := -1, ""
	if !a.Star {
		name, ok := exprVar(a.Arg)
		if !ok {
			// Computed aggregate arguments (COUNT(?x+1)) have no input
			// slot; the legacy finisher handles them.
			return nil, false
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
		return leaf, true
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
	return leaf, true
}

// rewrite replaces aggregate nodes with hidden-variable leaves,
// descending exactly the Binary/Unary chains evalAggregateExpr does —
// an aggregate nested anywhere else (a function argument, an IN list)
// is an expression error in the legacy path and must stay one.
func (b *aggBuild) rewrite(e sparql.Expr) (sparql.Expr, bool) {
	switch n := e.(type) {
	case *sparql.AggregateExpr:
		return b.aggVar(n)
	case *sparql.BinaryExpr:
		l, ok := b.rewrite(n.L)
		if !ok {
			return nil, false
		}
		r, ok := b.rewrite(n.R)
		if !ok {
			return nil, false
		}
		return &sparql.BinaryExpr{Op: n.Op, L: l, R: r}, true
	case *sparql.UnaryExpr:
		x, ok := b.rewrite(n.X)
		if !ok {
			return nil, false
		}
		return &sparql.UnaryExpr{Op: n.Op, X: x}, true
	}
	return e, true
}

// planAggregate compiles the query's aggregate finishing onto columnar
// operators, or returns nil for the legacy-shape finisher. Must run
// after collectVars and before the schema width freezes: it assigns
// the hidden aggregate-output slots.
func (ce *colExec) planAggregate(q *sparql.Query) *aggPlan {
	b := &aggBuild{ce: ce}
	ap := &aggPlan{}

	// Group keys: plain variables only. An expression key (or AS alias)
	// computes per input row through the Pool, which the operator keys
	// on slots cannot express.
	keyVars := map[string]bool{}
	for _, gk := range q.Mods.GroupBy {
		if gk.AsVar {
			return nil
		}
		name, ok := exprVar(gk.Expr)
		if !ok {
			return nil
		}
		keyVars[name] = true
		if s, ok := ce.schema.SlotOf(name); ok {
			ap.spec.Keys = append(ap.spec.Keys, s)
		}
		// A key variable without a slot is never bound: its key text is
		// constantly "" and cannot split groups, so it packs nothing.
	}
	ap.spec.EmptyGroup = len(q.Mods.GroupBy) == 0

	// Projection: plain variables pass through (non-key ones capture the
	// group's first row via AggFirst — the legacy members[0] read);
	// expression items rewrite.
	plainProjected := map[string]bool{}
	firstOf := map[int]bool{}
	sel := make([]sparql.SelectItem, 0, len(q.Select))
	for _, it := range q.Select {
		if it.Expr == nil {
			name := it.Var.Value
			plainProjected[name] = true
			if s, ok := ce.schema.SlotOf(name); ok && !keyVars[name] && !firstOf[s] {
				firstOf[s] = true
				b.specs = append(b.specs, exec.AggSpec{Kind: exec.AggFirst, Slot: s, Out: s})
			}
			sel = append(sel, it)
			continue
		}
		if _, clash := ce.schema.SlotOf(it.Var.Value); clash {
			// An expression alias shadowing a WHERE variable: projected
			// cells and group-row bindings would disagree about which
			// value the name means. Rare and legacy-defined; fall back.
			return nil
		}
		re, ok := b.rewrite(it.Expr)
		if !ok {
			return nil
		}
		sel = append(sel, sparql.SelectItem{Var: it.Var, Expr: re})
	}

	for _, h := range q.Mods.Having {
		re, ok := b.rewrite(h)
		if !ok {
			return nil
		}
		ap.having = append(ap.having, re)
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
		re, ok := b.rewrite(k.Expr)
		if !ok {
			return nil
		}
		ap.order = append(ap.order, orderKeyPlan{expr: re, desc: k.Desc})
	}

	// The emitted group row carries only key slots, AggFirst captures,
	// and hidden aggregate outputs. Any other variable an expression
	// touches — bound in the group's first member but absent from the
	// group row — or an EXISTS (whose evaluation seeds the full row)
	// diverges from members[0]: fall back. Variables without a schema
	// slot are safe: they are unbound on both paths.
	safe := true
	checkVars := func(e sparql.Expr) {
		sparql.WalkExpr(e, func(x sparql.Expr) bool {
			switch n := x.(type) {
			case *sparql.ExistsExpr:
				safe = false
			case *sparql.TermExpr:
				if n.Term.Kind != sparql.TermVar {
					break
				}
				name := n.Term.Value
				if isHiddenAggVar(name) || keyVars[name] || plainProjected[name] {
					break
				}
				if _, bound := ce.schema.SlotOf(name); bound {
					safe = false
				}
			}
			return safe
		})
	}
	for _, it := range sel {
		if it.Expr != nil {
			checkVars(it.Expr)
		}
	}
	for _, h := range ap.having {
		checkVars(h)
	}
	for _, k := range ap.order {
		checkVars(k.expr)
	}
	if !safe {
		return nil
	}

	ap.spec.Aggs = b.specs
	rq := *q
	rq.Select = sel
	rq.SelectStar = false
	mods := q.Mods
	mods.GroupBy, mods.Having, mods.OrderBy = nil, nil, nil
	rq.Mods = mods
	ap.rq = &rq
	return ap
}
