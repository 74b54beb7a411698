package lint

import (
	"fmt"
	"slices"
	"strings"

	"sparqlog/internal/analysis"
	"sparqlog/internal/hypergraph"
	"sparqlog/internal/sparql"
)

func init() {
	register(&Pass{
		Code:     "SQL001",
		Name:     "unsat-filter",
		Doc:      "FILTER constraints that can never keep a row: constant-false, always-erroring, self-comparisons, and contradictory per-variable constraints (equality substitution plus interval emptiness in both comparison regimes).",
		Severity: Error,
		Run:      runUnsatFilter,
	})
	register(&Pass{
		Code:     "SQL002",
		Name:     "cartesian-product",
		Doc:      "Groups whose join elements split into disconnected variable components, forming a cartesian product (detected on the variable hypergraph).",
		Severity: Warning,
		Run:      runCartesianProduct,
	})
	register(&Pass{
		Code:     "SQL003",
		Name:     "unbound-filter-var",
		Doc:      "FILTER expressions over variables no pattern of the query can bind; such comparisons error on every solution.",
		Severity: Warning,
		Run:      runUnboundFilterVar,
	})
	register(&Pass{
		Code:     "SQL004",
		Name:     "dead-projection",
		Doc:      "Projected variables no pattern of the query can bind: the column is null in every result row.",
		Severity: Info,
		Run:      runDeadProjection,
	})
	register(&Pass{
		Code:     "SQL005",
		Name:     "non-well-designed-optional",
		Doc:      "AOF patterns failing the well-designedness condition (Definition 5.3): OPTIONAL variables reused outside their optional scope make evaluation non-monotone and potentially expensive.",
		Severity: Warning,
		Run:      runNonWellDesigned,
	})
	register(&Pass{
		Code:     "SQL006",
		Name:     "duplicate-union",
		Doc:      "UNION operands that are structurally identical: duplicate evaluation work and duplicate solutions.",
		Severity: Warning,
		Run:      runDuplicateUnion,
	})
	register(&Pass{
		Code:     "SQL007",
		Name:     "collapsible-equality",
		Doc:      "FILTER(?x = ?y) equality filters, which join two variables only after both were enumerated; where substituting one variable for the other in the graph pattern is safe, the diagnostic says which.",
		Severity: Info,
		Run:      runCollapsibleEquality,
	})
	register(&Pass{
		Code:     "SQL008",
		Name:     "unbound-order-key",
		Doc:      "ORDER BY keys over variables no pattern of the query can bind (and that no SELECT or GROUP BY alias introduces): every row's key errors identically, so the sort silently has no effect.",
		Severity: Warning,
		Run:      runUnboundOrderKey,
	})
}

// scope is one variable scope, the top query's or a subquery's. Its
// folders' dead variables are those no solution can carry: f[0]'s
// outside MINUS bodies, f[1]'s inside one, where what MINUS bodies bind
// is live. Prefixes are the outer query's, as the evaluator's are.
type scope struct {
	sc     *sparql.Scope
	prefix string // "" for the top query, else "<path>." of the subselect
	f      [2]*folder
}

func (s *scope) wherePath() string { return s.prefix + "where" }

// folder returns the folder for a walk standing at l.
func (s *scope) folder(l *location) *folder { return s.f[min(l.minus, 1)] }

func scopes(top *sparql.Scope) []*scope {
	prefixes := top.Query.Prologue.PrefixMap()
	var out []*scope
	var collect func(sc *sparql.Scope, prefix string)
	collect = func(sc *sparql.Scope, prefix string) {
		out = append(out, &scope{sc: sc, prefix: prefix, f: [2]*folder{
			newFolder(sc, prefixes, sc.Bindable),
			newFolder(sc, prefixes, sc.Bindable.Or(sc.MinusOnly)),
		}})
		if sc.Query.Where == nil {
			return
		}
		walkPath(sc.Query.Where, prefix+"where", func(p sparql.Pattern, at *location) bool {
			if ss, ok := p.(*sparql.SubSelect); ok && ss.Query != nil {
				collect(sc.Sub(ss.Query), at.String()+".")
			}
			return true
		})
	}
	collect(top, "")
	return out
}

// ---------- SQL001 ----------

func runUnsatFilter(c *Ctx) {
	for _, s := range c.scopes {
		if s.sc.Query.Where == nil {
			continue
		}
		walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			if fl, ok := p.(*sparql.Filter); ok {
				if reason, unsat := s.folder(at).unsatReason(fl.Constraint); unsat {
					c.Report(at.String(), sparql.PatternString(fl),
						"FILTER never keeps a row: %s", reason)
				}
			}
			return true
		})
	}
}

// ---------- SQL002 ----------

func runCartesianProduct(c *Ctx) {
	for _, s := range c.scopes {
		if s.sc.Query.Where == nil {
			continue
		}
		walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			if g, ok := p.(*sparql.Group); ok {
				checkGroupProduct(c, s, g, at)
			}
			return true
		})
	}
}

// checkGroupProduct builds the variable hypergraph of one group: one
// edge per var-bearing element, the element's variables as the scope
// numbers them (sparql.Scope.Elems). Elements that multiply rows
// (triples, paths, unions, nested groups, GRAPH, subselects, VALUES)
// are "join" edges; the rest (filters, binds, OPTIONAL, MINUS, SERVICE)
// only connect components. Two or more components that each contain a
// join edge form a cartesian product.
func checkGroupProduct(c *Ctx, s *scope, g *sparql.Group, at *location) {
	elems := s.sc.Elems(g)
	var edges []int // the elements with variables, one edge each
	n := 0
	for i, set := range elems {
		if set.Len() > 0 {
			edges = append(edges, i)
			if joins(g.Elems[i]) {
				n++
			}
		}
	}
	if n < 2 {
		return
	}
	h := hypergraph.New(len(s.sc.Names))
	for _, i := range edges {
		h.AddEdge(slices.Collect(elems[i].All())...)
	}
	labels := h.EdgeComponents()
	comps := make([]sparql.VarSet, slices.Max(labels)+1)
	hasJoin := make([]bool, len(comps))
	for k, i := range edges {
		comps[labels[k]] = comps[labels[k]].Or(elems[i])
		hasJoin[labels[k]] = hasJoin[labels[k]] || joins(g.Elems[i])
	}
	var parts []string
	for comp, set := range comps {
		if !hasJoin[comp] {
			continue
		}
		names := s.sc.NamesOf(set)
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
	c.Report(at.String(), "", "group is a cartesian product of %d disconnected components: %s",
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

func runUnboundFilterVar(c *Ctx) {
	for _, s := range c.scopes {
		if s.sc.Query.Where == nil {
			continue
		}
		walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			fl, ok := p.(*sparql.Filter)
			if !ok {
				return true
			}
			for _, v := range ownVars(fl.Constraint, s.folder(at).isDead) {
				c.Report(at.String(), sparql.ExprString(fl.Constraint),
					"FILTER uses ?%s, which no pattern of the query can bind", v)
			}
			return true
		})
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

func runDeadProjection(c *Ctx) {
	for _, s := range c.scopes {
		switch s.sc.Query.Type {
		case sparql.SelectQuery:
			if s.sc.Query.SelectStar {
				continue
			}
			for i, it := range s.sc.Query.Select {
				if it.Expr != nil || it.Var.Kind != sparql.TermVar {
					continue
				}
				if !s.sc.In(s.sc.Bindable, it.Var.Value) {
					c.Report(fmt.Sprintf("%sselect[%d]", s.prefix, i), "?"+it.Var.Value,
						"projected variable ?%s is never bound: the column is null in every row", it.Var.Value)
				}
			}
		case sparql.DescribeQuery:
			for i, t := range s.sc.Query.DescribeTerms {
				if t.Kind == sparql.TermVar && !s.sc.In(s.sc.Bindable, t.Value) {
					c.Report(fmt.Sprintf("%sdescribe[%d]", s.prefix, i), "?"+t.Value,
						"described variable ?%s is never bound", t.Value)
				}
			}
		}
	}
}

// ---------- SQL005 ----------

func runNonWellDesigned(c *Ctx) {
	for _, s := range c.scopes {
		f := analysis.Scan(s.sc.Query)
		if frag := analysis.ClassifyFragments(&f, s.sc); frag.AOF && !frag.WellDesigned {
			c.Report(s.wherePath(), "",
				"pattern is not well-designed: an OPTIONAL variable is reused outside its optional scope (non-monotone semantics, evaluation blowup risk)")
		}
	}
}

// ---------- SQL006 ----------

func runDuplicateUnion(c *Ctx) {
	for _, s := range c.scopes {
		if s.sc.Query.Where == nil {
			continue
		}
		walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			if u, ok := p.(*sparql.Union); ok {
				// Compare the branches canonically (prefixes expanded,
				// variables renamed under one shared context): catches
				// `dbo:x` vs its full-IRI spelling while branches over
				// different variables — different solutions — stay
				// distinct. The reported snippet keeps the user's own
				// spelling.
				cs := sparql.CanonPatternStrings(c.Query.Prologue, u.Left, u.Right)
				if cs[0] != "" && cs[0] == cs[1] {
					c.Report(at.String(), sparql.PatternString(u.Left),
						"UNION branches are identical: duplicate work and duplicate solutions")
				}
			}
			return true
		})
	}
}

// ---------- SQL007 ----------

func runCollapsibleEquality(c *Ctx) {
	// The substitution is only proven safe for the top scope
	// (occurrence counting is per scope); equality filters in
	// subqueries are still reported, just without that advice.
	for _, s := range c.scopes {
		if s.sc.Query.Where == nil {
			continue
		}
		top := s.prefix == ""
		walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			g, ok := p.(*sparql.Group)
			if !ok {
				return true
			}
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
						c.Report(epath, sparql.PatternString(fl),
							"equality FILTER(?%s = ?%s) can be collapsed into the graph pattern (substitute ?%s := ?%s)", x, y, drop, keep)
						continue
					}
				}
				c.Report(epath, sparql.PatternString(fl),
					"equality FILTER(?%s = ?%s) joins two variables after enumeration; consider merging them in the pattern", x, y)
			}
			return true
		})
	}
}

// ---------- SQL008 ----------

// runUnboundOrderKey flags ORDER BY keys whose variables can never be
// bound: not by any pattern of the scope's WHERE clause, not as a
// SELECT expression alias, and not as a GROUP BY ... AS alias. The key
// expression then errors on every row, and since the comparator skips
// error keys pairwise, the sort is a silent no-op on that key.
func runUnboundOrderKey(c *Ctx) {
	for _, s := range c.scopes {
		unbound := func(v string) bool { return !s.sc.In(s.sc.Bindable, v) && !isAsTarget(s.sc.Query, v) }
		for i, ok := range s.sc.Query.Mods.OrderBy {
			for _, v := range ownVars(ok.Expr, unbound) {
				c.Report(fmt.Sprintf("%sorderby[%d]", s.prefix, i), sparql.ExprString(ok.Expr),
					"ORDER BY key uses ?%s, which nothing in the query binds: the sort is a silent no-op on that key", v)
			}
		}
	}
}
