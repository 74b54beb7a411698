package lint

import "sparqlog/internal/sparql"

// Empty reports whether the query's WHERE clause provably produces no
// solutions on any dataset: some required element of it is statically
// empty, or some filter can never keep a row. The proof is purely
// syntactic — no snapshot is consulted — which is exactly what lets
// the evaluator answer such queries without a single index probe.
//
// Soundness notes: OPTIONAL and MINUS never make their group emptier
// than their left side, so they are skipped; SERVICE SILENT recovers
// errors but not empty results, so an empty inner pattern stays empty;
// a subquery with aggregation but no GROUP BY yields one row over an
// empty body, so only non-aggregated subqueries propagate emptiness.
func Empty(q *sparql.Query) bool {
	return EmptyUnder(q, q.Prologue.PrefixMap())
}

// EmptyUnder is Empty with an explicit prefix environment. The
// evaluator resolves prefixed IRIs of subqueries against the outer
// query's prologue, so emptiness of a subquery must be judged under
// the caller's prefixes, not the subquery's own (empty) prologue.
func EmptyUnder(q *sparql.Query, prefixes sparql.Prefixes) bool {
	if q.Where == nil {
		return false
	}
	f := &folder{prefixes: prefixes, dead: deadVars(q)}
	if q.TrailingValues != nil && len(q.TrailingValues.Rows) == 0 && len(q.TrailingValues.Vars) > 0 {
		return true
	}
	return emptyPattern(f, q.Where)
}

// deadVars returns the variables of the WHERE clause no pattern can
// bind.
func deadVars(q *sparql.Query) map[string]bool {
	dead := make(map[string]bool)
	if q.Where == nil {
		return dead
	}
	bindable := bindableVars(q)
	for v := range sparql.Vars(q.Where) {
		if !bindable[v] {
			dead[v] = true
		}
	}
	return dead
}

func emptyPattern(f *folder, p sparql.Pattern) bool {
	switch n := p.(type) {
	case *sparql.Group:
		for _, el := range n.Elems {
			switch e := el.(type) {
			case *sparql.Optional, *sparql.MinusGraph:
				// Never reduce the group below the left side's rows.
			case *sparql.Filter:
				if _, unsat := f.unsatReason(e.Constraint); unsat {
					return true
				}
			default:
				if emptyPattern(f, e) {
					return true
				}
			}
		}
		return false
	case *sparql.Union:
		return emptyPattern(f, n.Left) && emptyPattern(f, n.Right)
	case *sparql.Filter:
		// A bare filter at the root applies to the unit row.
		_, unsat := f.unsatReason(n.Constraint)
		return unsat
	case *sparql.GraphGraph:
		return emptyPattern(f, n.Inner)
	case *sparql.ServiceGraph:
		return emptyPattern(f, n.Inner)
	case *sparql.InlineData:
		return len(n.Rows) == 0 && len(n.Vars) > 0
	case *sparql.SubSelect:
		sub := n.Query
		if sub == nil || sub.Where == nil {
			return false
		}
		if sub.Mods.HasLimit && sub.Mods.Limit == 0 {
			return true
		}
		if hasAggregation(sub) {
			// Aggregation without groups produces one row even over
			// an empty body.
			return false
		}
		if sub.TrailingValues != nil && len(sub.TrailingValues.Rows) == 0 && len(sub.TrailingValues.Vars) > 0 {
			return true
		}
		// The subquery is its own variable scope (it is evaluated
		// independently and joined on its projection), so dead
		// variables are recomputed for it; prefixes stay the
		// caller's, matching the evaluator.
		sf := &folder{prefixes: f.prefixes, dead: deadVars(sub)}
		return emptyPattern(sf, sub.Where)
	}
	// Triples and paths depend on the data.
	return false
}

// hasAggregation reports whether the query groups or aggregates.
func hasAggregation(q *sparql.Query) bool {
	if len(q.Mods.GroupBy) > 0 || len(q.Mods.Having) > 0 {
		return true
	}
	agg := false
	for _, it := range q.Select {
		if it.Expr == nil {
			continue
		}
		sparql.WalkExpr(it.Expr, func(e sparql.Expr) bool {
			if _, ok := e.(*sparql.AggregateExpr); ok {
				agg = true
				return false
			}
			return true
		})
	}
	return agg
}
