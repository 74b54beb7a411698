package lint

import (
	"fmt"
	"slices"
	"strings"

	"sparqlog/internal/analysis"
	"sparqlog/internal/sparql"
)

// passes is the pass table, in code order.
var passes = []*Pass{unsatFilter, cartesianProduct, unboundFilterVar, deadProjection,
	nonWellDesigned, duplicateUnion, collapsibleEquality, unboundOrderKey}

var (
	unsatFilter = &Pass{
		Code:     "SQL001",
		Name:     "unsat-filter",
		Doc:      "FILTER constraints that can never keep a row: constant-false, always-erroring, self-comparisons, and contradictory per-variable constraints (equality substitution plus interval emptiness in both comparison regimes).",
		Severity: Error,
	}
	cartesianProduct = &Pass{
		Code:     "SQL002",
		Name:     "cartesian-product",
		Doc:      "Groups whose join elements split into disconnected variable components, forming a cartesian product.",
		Severity: Warning,
	}
	unboundFilterVar = &Pass{
		Code:     "SQL003",
		Name:     "unbound-filter-var",
		Doc:      "FILTER expressions over variables no pattern of the query can bind; such comparisons error on every solution.",
		Severity: Warning,
	}
	deadProjection = &Pass{
		Code:     "SQL004",
		Name:     "dead-projection",
		Doc:      "Projected variables no pattern of the query can bind: the column is null in every result row.",
		Severity: Info,
	}
	nonWellDesigned = &Pass{
		Code:     "SQL005",
		Name:     "non-well-designed-optional",
		Doc:      "AOF patterns failing the well-designedness condition (Definition 5.3): OPTIONAL variables reused outside their optional scope make evaluation non-monotone and potentially expensive.",
		Severity: Warning,
	}
	duplicateUnion = &Pass{
		Code:     "SQL006",
		Name:     "duplicate-union",
		Doc:      "UNION operands that are structurally identical: duplicate evaluation work and duplicate solutions.",
		Severity: Warning,
	}
	collapsibleEquality = &Pass{
		Code:     "SQL007",
		Name:     "collapsible-equality",
		Doc:      "FILTER(?x = ?y) equality filters, which join two variables only after both were enumerated; where substituting one variable for the other in the graph pattern is safe, the diagnostic says which.",
		Severity: Info,
	}
	unboundOrderKey = &Pass{
		Code:     "SQL008",
		Name:     "unbound-order-key",
		Doc:      "ORDER BY keys over variables no pattern of the query can bind (and that no SELECT or GROUP BY alias introduces): every row's key errors identically, so the sort silently has no effect.",
		Severity: Warning,
	}
)

// scope is one variable scope, the top query's or a subquery's. Its
// folders' dead variables are those no solution can carry: f[0]'s
// outside MINUS bodies, f[1]'s inside one, where what MINUS bodies bind
// is live. Prefixes are the outer query's, as the evaluator's are.
type scope struct {
	sc     *sparql.Scope
	prefix string // "" for the top query, else "<path>." of the subselect
	f      [2]*folder
}

// scope returns sc's scope, whose paths begin with prefix.
func (l *linter) scope(sc *sparql.Scope, prefix string) *scope {
	return &scope{sc: sc, prefix: prefix, f: [2]*folder{
		newFolder(sc, l.prefixes, sc.Bindable),
		newFolder(sc, l.prefixes, sc.Bindable.Or(sc.MinusOnly)),
	}}
}

func (s *scope) wherePath() string { return s.prefix + "where" }

// folder returns the folder for a walk standing at l.
func (s *scope) folder(l *location) *folder { return s.f[min(l.minus, 1)] }

// visit runs the passes that fire on node p of scope s's WHERE clause:
// SQL001 and SQL003 on a FILTER, SQL002 and SQL007 on a group, SQL006
// on a UNION.
func (l *linter) visit(s *scope, p sparql.Pattern, at *location) {
	switch n := p.(type) {
	case *sparql.Filter:
		l.checkUnsatFilter(s, n, at)
		l.checkUnboundFilterVar(s, n, at)
	case *sparql.Group:
		l.checkCartesianProduct(s, n, at)
		l.checkCollapsibleEquality(s, n, at)
	case *sparql.Union:
		l.checkDuplicateUnion(n, at)
	}
}

// ---------- SQL001 ----------

func (l *linter) checkUnsatFilter(s *scope, fl *sparql.Filter, at *location) {
	if reason, unsat := s.folder(at).unsatReason(fl.Constraint); unsat {
		l.report(unsatFilter, at.String(), sparql.PatternString(fl),
			"FILTER never keeps a row: %s", reason)
	}
}

// ---------- SQL002 ----------

// checkCartesianProduct splits one group's elements into components:
// two elements are connected when their variables, as the scope
// numbers them (sparql.Scope.Elems), meet, transitively. Elements that
// multiply rows (triples, paths, unions, nested groups, GRAPH,
// subselects, VALUES) join; the rest (filters, binds, OPTIONAL, MINUS,
// SERVICE) only connect components. Two or more components that each
// hold a joining element form a cartesian product.
func (l *linter) checkCartesianProduct(s *scope, g *sparql.Group, at *location) {
	if len(g.Elems) < 2 {
		return
	}
	type component struct {
		vars  sparql.VarSet
		joins bool
	}
	// comps is kept in order of each component's first element: an
	// element absorbs every component it meets, and the merged one
	// takes the place of the first of them.
	var comps []component
	for i, set := range s.sc.Elems(g) {
		if set.Len() == 0 {
			continue
		}
		c := component{vars: set, joins: joins(g.Elems[i])}
		first := -1
		kept := comps[:0]
		for _, k := range comps {
			if k.vars.And(set).Len() == 0 {
				kept = append(kept, k)
				continue
			}
			if first < 0 {
				first = len(kept)
			}
			c.vars = c.vars.Or(k.vars)
			c.joins = c.joins || k.joins
		}
		if first < 0 {
			first = len(kept)
		}
		comps = slices.Insert(kept, first, c)
	}
	var parts []string
	for _, c := range comps {
		if !c.joins {
			continue
		}
		names := s.sc.NamesOf(c.vars)
		slices.Sort(names)
		for j, n := range names {
			if !strings.HasPrefix(n, "_:") {
				names[j] = "?" + n
			}
		}
		parts = append(parts, "{"+strings.Join(names, " ")+"}")
	}
	if len(parts) < 2 {
		return
	}
	l.report(cartesianProduct, at.String(), "", "group is a cartesian product of %d disconnected components: %s",
		len(parts), strings.Join(parts, " × "))
}

// joins reports whether a group element multiplies rows.
func joins(el sparql.Pattern) bool {
	switch t := el.(type) {
	case *sparql.TriplePattern, *sparql.PathPattern, *sparql.Group, *sparql.Union, *sparql.GraphGraph, *sparql.SubSelect:
		return true
	case *sparql.InlineData:
		return len(t.Rows) > 1
	}
	return false
}

// ---------- SQL003 ----------

func (l *linter) checkUnboundFilterVar(s *scope, fl *sparql.Filter, at *location) {
	for _, v := range ownVars(fl.Constraint, s.folder(at).isDead) {
		l.report(unboundFilterVar, at.String(), sparql.ExprString(fl.Constraint),
			"FILTER uses ?%s, which no pattern of the query can bind", v)
	}
}

// ownVars returns, sorted and once each, the variables e mentions
// outside its EXISTS bodies (which bind their own matches) that keep
// holds for.
func ownVars(e sparql.Expr, keep func(string) bool) []string {
	var out []string
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		if te, ok := x.(*sparql.TermExpr); ok && te.Term.Kind == sparql.TermVar && te.Term.Value != "" && keep(te.Term.Value) {
			out = append(out, te.Term.Value)
		}
		return true
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// ---------- SQL004 ----------

func (l *linter) checkDeadProjection(s *scope) {
	switch s.sc.Query.Type {
	case sparql.SelectQuery:
		if s.sc.Query.SelectStar {
			return
		}
		for i, it := range s.sc.Query.Select {
			if it.Expr != nil || it.Var.Kind != sparql.TermVar {
				continue
			}
			if !s.sc.In(s.sc.Bindable, it.Var.Value) {
				l.report(deadProjection, fmt.Sprintf("%sselect[%d]", s.prefix, i), "?"+it.Var.Value,
					"projected variable ?%s is never bound: the column is null in every row", it.Var.Value)
			}
		}
	case sparql.DescribeQuery:
		for i, t := range s.sc.Query.DescribeTerms {
			if t.Kind == sparql.TermVar && !s.sc.In(s.sc.Bindable, t.Value) {
				l.report(deadProjection, fmt.Sprintf("%sdescribe[%d]", s.prefix, i), "?"+t.Value,
					"described variable ?%s is never bound", t.Value)
			}
		}
	}
}

// ---------- SQL005 ----------

// checkNonWellDesigned returns the scan of s's query it classified.
func (l *linter) checkNonWellDesigned(s *scope) analysis.Features {
	f := analysis.Scan(s.sc.Query)
	if frag := analysis.ClassifyFragments(&f, s.sc); frag.AOF && !frag.WellDesigned {
		l.report(nonWellDesigned, s.wherePath(), "",
			"pattern is not well-designed: an OPTIONAL variable is reused outside its optional scope (non-monotone semantics, evaluation blowup risk)")
	}
	return f
}

// ---------- SQL006 ----------

func (l *linter) checkDuplicateUnion(u *sparql.Union, at *location) {
	// Compare the branches canonically (prefixes expanded, variables
	// renamed under one shared context): catches `dbo:x` vs its
	// full-IRI spelling while branches over different variables —
	// different solutions — stay distinct. The reported snippet keeps
	// the user's own spelling.
	cs := sparql.CanonPatternStrings(l.q.Prologue, u.Left, u.Right)
	if cs[0] != "" && cs[0] == cs[1] {
		l.report(duplicateUnion, at.String(), sparql.PatternString(u.Left),
			"UNION branches are identical: duplicate work and duplicate solutions")
	}
}

// ---------- SQL007 ----------

func (l *linter) checkCollapsibleEquality(s *scope, g *sparql.Group, at *location) {
	// The substitution is only proven safe for the top scope
	// (occurrence counting is per scope); equality filters in
	// subqueries are still reported, just without that advice.
	top := s.prefix == ""
	for i, el := range g.Elems {
		fl, ok := el.(*sparql.Filter)
		if !ok {
			continue
		}
		x, y, ok := analysis.EqualityVars(fl.Constraint)
		if !ok {
			continue
		}
		epath := fmt.Sprintf("%s.group[%d]", at, i)
		if top {
			if keep, drop, ok := canCollapse(s.sc, g, i); ok {
				l.report(collapsibleEquality, epath, sparql.PatternString(fl),
					"equality FILTER(?%s = ?%s) can be collapsed into the graph pattern (substitute ?%s := ?%s)", x, y, drop, keep)
				continue
			}
		}
		l.report(collapsibleEquality, epath, sparql.PatternString(fl),
			"equality FILTER(?%s = ?%s) joins two variables after enumeration; consider merging them in the pattern", x, y)
	}
}

// ---------- SQL008 ----------

// checkUnboundOrderKey flags ORDER BY keys whose variables can never
// be bound: not by any pattern of the scope's WHERE clause, not as a
// SELECT expression alias, and not as a GROUP BY ... AS alias. The key
// expression then errors on every row, and since the comparator skips
// error keys pairwise, the sort is a silent no-op on that key.
func (l *linter) checkUnboundOrderKey(s *scope) {
	unbound := func(v string) bool { return !s.sc.In(s.sc.Bindable, v) && !isAsTarget(s.sc.Query, v) }
	for i, ok := range s.sc.Query.Mods.OrderBy {
		for _, v := range ownVars(ok.Expr, unbound) {
			l.report(unboundOrderKey, fmt.Sprintf("%sorderby[%d]", s.prefix, i), sparql.ExprString(ok.Expr),
				"ORDER BY key uses ?%s, which nothing in the query binds: the sort is a silent no-op on that key", v)
		}
	}
}
