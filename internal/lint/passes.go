package lint

import (
	"fmt"
	"sort"
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

// scope is one variable scope: the top query, or one subquery. Each
// has its own bindable/dead variable sets; the prefix environment is
// always the outer query's (the evaluator resolves subquery IRIs
// against it).
type scope struct {
	q        *sparql.Query
	prefix   string // "" for the top query, else "<path>." of the subselect
	f        *folder
	bindable map[string]bool
}

func (s *scope) wherePath() string { return s.prefix + "where" }

func scopes(q *sparql.Query) []*scope {
	prefixes := q.Prologue.PrefixMap()
	var out []*scope
	var collect func(q *sparql.Query, prefix string)
	collect = func(q *sparql.Query, prefix string) {
		out = append(out, &scope{
			q:        q,
			prefix:   prefix,
			f:        &folder{prefixes: prefixes, dead: deadVars(q)},
			bindable: bindableVars(q),
		})
		if q.Where == nil {
			return
		}
		walkPath(q.Where, prefix+"where", func(p sparql.Pattern, at *location) bool {
			if ss, ok := p.(*sparql.SubSelect); ok && ss.Query != nil {
				collect(ss.Query, at.String()+".")
			}
			return true
		})
	}
	collect(q, "")
	return out
}

// ---------- SQL001 ----------

func runUnsatFilter(c *Ctx) {
	for _, s := range c.scopes {
		if s.q.Where == nil {
			continue
		}
		walkPath(s.q.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			if fl, ok := p.(*sparql.Filter); ok {
				if reason, unsat := s.f.unsatReason(fl.Constraint); unsat {
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
		if s.q.Where == nil {
			continue
		}
		walkPath(s.q.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			if g, ok := p.(*sparql.Group); ok {
				checkGroupProduct(c, g, at)
			}
			return true
		})
	}
}

// checkGroupProduct builds the variable hypergraph of one group: one
// edge per var-bearing element. Elements that multiply rows (triples,
// paths, unions, nested groups, GRAPH, subselects, VALUES) are "join"
// edges; the rest (filters, binds, OPTIONAL, MINUS, SERVICE) only
// connect components. Two or more components that each contain a join
// edge form a cartesian product.
func checkGroupProduct(c *Ctx, g *sparql.Group, at *location) {
	type edge struct {
		vars []string
		join bool
	}
	var edges []edge
	for _, el := range g.Elems {
		vs := make(map[string]bool)
		join := false
		switch t := el.(type) {
		case *sparql.TriplePattern:
			nodeVar(t.S, vs)
			nodeVar(t.P, vs)
			nodeVar(t.O, vs)
			join = true
		case *sparql.PathPattern:
			nodeVar(t.S, vs)
			nodeVar(t.O, vs)
			join = true
		case *sparql.Group, *sparql.Union, *sparql.GraphGraph, *sparql.SubSelect:
			for v := range sparql.Vars(el) {
				vs[v] = true
			}
			join = true
		case *sparql.InlineData:
			for _, v := range t.Vars {
				nodeVar(v, vs)
			}
			join = len(t.Rows) > 1
		case *sparql.Filter:
			for v := range sparql.ExprVars(t.Constraint) {
				vs[v] = true
			}
		case *sparql.Bind:
			for v := range sparql.ExprVars(t.Expr) {
				vs[v] = true
			}
			nodeVar(t.Var, vs)
		default: // Optional, MinusGraph, ServiceGraph: connectors only
			for v := range sparql.Vars(el) {
				vs[v] = true
			}
		}
		if len(vs) == 0 {
			continue
		}
		names := make([]string, 0, len(vs))
		for v := range vs {
			names = append(names, v)
		}
		sort.Strings(names)
		edges = append(edges, edge{vars: names, join: join})
	}
	joins := 0
	for _, e := range edges {
		if e.join {
			joins++
		}
	}
	if joins < 2 {
		return
	}
	vid := make(map[string]int)
	for _, e := range edges {
		for _, v := range e.vars {
			if _, ok := vid[v]; !ok {
				vid[v] = len(vid)
			}
		}
	}
	h := hypergraph.New(len(vid))
	for _, e := range edges {
		ids := make([]int, len(e.vars))
		for i, v := range e.vars {
			ids[i] = vid[v]
		}
		h.AddEdge(ids...)
	}
	labels := h.EdgeComponents()
	compHasJoin := make(map[int]bool)
	compVars := make(map[int][]string)
	for i, e := range edges {
		comp := labels[i]
		if e.join {
			compHasJoin[comp] = true
		}
		compVars[comp] = append(compVars[comp], e.vars...)
	}
	var joinComps []int
	for comp, has := range compHasJoin {
		if has {
			joinComps = append(joinComps, comp)
		}
	}
	if len(joinComps) < 2 {
		return
	}
	sort.Ints(joinComps)
	var parts []string
	for _, comp := range joinComps {
		parts = append(parts, "{?"+strings.Join(dedupSorted(compVars[comp]), " ?")+"}")
	}
	c.Report(at.String(), "", "group is a cartesian product of %d disconnected components: %s",
		len(joinComps), strings.Join(parts, " × "))
}

func nodeVar(t sparql.Term, out map[string]bool) {
	switch t.Kind {
	case sparql.TermVar:
		if t.Value != "" {
			out[t.Value] = true
		}
	case sparql.TermBlank:
		// Blank nodes join like variables within the query.
		out["_:"+t.Value] = true
	}
}

func dedupSorted(vs []string) []string {
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ---------- SQL003 ----------

func runUnboundFilterVar(c *Ctx) {
	for _, s := range c.scopes {
		if s.q.Where == nil {
			continue
		}
		walkPath(s.q.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			fl, ok := p.(*sparql.Filter)
			if !ok {
				return true
			}
			for _, v := range sortedVars(exprOwnVars(fl.Constraint)) {
				if !s.bindable[v] {
					c.Report(at.String(), sparql.ExprString(fl.Constraint),
						"FILTER uses ?%s, which no pattern of the query can bind", v)
				}
			}
			return true
		})
	}
}

// exprOwnVars collects the variables of an expression excluding
// EXISTS bodies, which bind their own matches.
func exprOwnVars(e sparql.Expr) map[string]bool {
	out := make(map[string]bool)
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		if te, ok := x.(*sparql.TermExpr); ok && te.Term.Kind == sparql.TermVar && te.Term.Value != "" {
			out[te.Term.Value] = true
		}
		return true
	})
	return out
}

func sortedVars(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ---------- SQL004 ----------

func runDeadProjection(c *Ctx) {
	for _, s := range c.scopes {
		switch s.q.Type {
		case sparql.SelectQuery:
			if s.q.SelectStar {
				continue
			}
			for i, it := range s.q.Select {
				if it.Expr != nil || it.Var.Kind != sparql.TermVar {
					continue
				}
				if !s.bindable[it.Var.Value] {
					c.Report(fmt.Sprintf("%sselect[%d]", s.prefix, i), "?"+it.Var.Value,
						"projected variable ?%s is never bound: the column is null in every row", it.Var.Value)
				}
			}
		case sparql.DescribeQuery:
			for i, t := range s.q.DescribeTerms {
				if t.Kind == sparql.TermVar && !s.bindable[t.Value] {
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
		if s.q.Where == nil {
			continue
		}
		frag := analysis.ClassifyFragments(s.q)
		if !frag.AOF || !hasOptional(s.q.Where) {
			continue
		}
		if !analysis.WellDesigned(s.q.Where) {
			c.Report(s.wherePath(), "",
				"pattern is not well-designed: an OPTIONAL variable is reused outside its optional scope (non-monotone semantics, evaluation blowup risk)")
		}
	}
}

func hasOptional(p sparql.Pattern) bool {
	found := false
	sparql.Walk(p, func(n sparql.Pattern) bool {
		if _, ok := n.(*sparql.Optional); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// ---------- SQL006 ----------

func runDuplicateUnion(c *Ctx) {
	for _, s := range c.scopes {
		if s.q.Where == nil {
			continue
		}
		walkPath(s.q.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
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
		if s.q.Where == nil {
			continue
		}
		top := s.prefix == ""
		walkPath(s.q.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
			g, ok := p.(*sparql.Group)
			if !ok {
				return true
			}
			for i, el := range g.Elems {
				fl, ok := el.(*sparql.Filter)
				if !ok {
					continue
				}
				x, y, ok := eqVars(fl.Constraint)
				if !ok {
					continue
				}
				epath := fmt.Sprintf("%s.group[%d]", at, i)
				if top {
					if keep, drop, ok := canCollapse(c.Query, g, i); ok {
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
		if len(s.q.Mods.OrderBy) == 0 {
			continue
		}
		aliased := make(map[string]bool)
		if !s.q.SelectStar {
			for _, it := range s.q.Select {
				if it.Expr != nil && it.Var.Kind == sparql.TermVar && it.Var.Value != "" {
					aliased[it.Var.Value] = true
				}
			}
		}
		for _, gk := range s.q.Mods.GroupBy {
			if gk.AsVar && gk.Var.Kind == sparql.TermVar && gk.Var.Value != "" {
				aliased[gk.Var.Value] = true
			}
		}
		for i, ok := range s.q.Mods.OrderBy {
			for _, v := range sortedVars(exprOwnVars(ok.Expr)) {
				if s.bindable[v] || aliased[v] {
					continue
				}
				c.Report(fmt.Sprintf("%sorderby[%d]", s.prefix, i), sparql.ExprString(ok.Expr),
					"ORDER BY key uses ?%s, which nothing in the query binds: the sort is a silent no-op on that key", v)
			}
		}
	}
}

// eqVars matches constraints of the exact form ?x = ?y with x != y.
func eqVars(e sparql.Expr) (string, string, bool) {
	be, ok := e.(*sparql.BinaryExpr)
	if !ok || be.Op != "=" {
		return "", "", false
	}
	l, lok := asVar(be.L)
	r, rok := asVar(be.R)
	if !lok || !rok || l == r {
		return "", "", false
	}
	return l, r, true
}
