package lint

import "sparqlog/internal/sparql"

// EmptyUnder reports whether the WHERE clause of the query whose Scope
// is sc provably produces no solutions on any dataset: some required
// element of it is statically empty, or some filter can never keep a
// row. The proof is purely syntactic — no snapshot is consulted — which
// is exactly what lets the evaluator answer such queries without a
// single index probe. The evaluator resolves prefixed IRIs of
// subqueries against the outer query's prologue, so prefixes is the
// caller's, not a subquery's own (empty) prologue.
//
// Soundness notes: OPTIONAL and MINUS never make their group emptier
// than their left side, so they are skipped; SERVICE SILENT recovers
// errors but not empty results, so an empty inner pattern stays empty;
// a subquery with aggregation but no GROUP BY yields one row over an
// empty body, so only non-aggregated subqueries propagate emptiness.
func EmptyUnder(sc *sparql.Scope, prefixes sparql.Prefixes) bool {
	q := sc.Query
	if q.Where == nil {
		return false
	}
	if q.TrailingValues != nil && len(q.TrailingValues.Rows) == 0 && len(q.TrailingValues.Vars) > 0 {
		return true
	}
	return emptyPattern(newFolder(sc, prefixes, sc.Bindable), q.Where)
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
		if sub.Grouped() {
			// Aggregation without groups produces one row even over
			// an empty body.
			return false
		}
		// The subquery is its own variable scope (it is evaluated
		// independently and joined on its projection), so its dead
		// variables are its Scope's; prefixes stay the caller's,
		// matching the evaluator.
		return EmptyUnder(f.sc.Sub(sub), f.prefixes)
	}
	// Triples and paths depend on the data.
	return false
}
