package lint

import (
	"sparqlog/internal/sparql"
)

// This file is SQL007's own analysis: whether a group-level
// FILTER(?x = ?y) could be written away by its author, substituting
// ?y := ?x in the group's triple/path elements so the join enforces
// the equality during enumeration instead of filtering after a
// cartesian-style enumeration of both variables. It is advice, not a
// rewrite the engine applies: "=" is value equality (numeric when both
// sides parse as numbers) while substitution enforces term equality,
// so "01" = "1" satisfies the filter but not the merged pattern, and
// only the author knows whether the data is term-shaped (IRIs).

// canCollapse reports whether the equality filter at g.Elems[i] can
// be collapsed, and which side to keep. Requirements, checked for
// (keep=x, drop=y) and then the reverse:
//
//   - both variables occur in the group's direct triple/path elements
//     (so every surviving row binds them there), and
//   - drop occurs nowhere else in the WHERE tree: its only occurrences
//     are those direct elements plus this one filter, and
//   - drop is not an AS target of the projection or GROUP BY (which
//     would rebind it).
func canCollapse(q *sparql.Query, g *sparql.Group, i int) (keep, drop string, ok bool) {
	fl, isFilter := g.Elems[i].(*sparql.Filter)
	if !isFilter || q.Where == nil {
		return "", "", false
	}
	x, y, isEq := eqVars(fl.Constraint)
	if !isEq {
		return "", "", false
	}
	try := func(keep, drop string) bool {
		dDirect := directTripleOcc(g, drop)
		if dDirect == 0 || directTripleOcc(g, keep) == 0 {
			return false
		}
		if isAsTarget(q, drop) {
			return false
		}
		// All of drop's WHERE-tree occurrences must be the direct
		// elements plus the one occurrence in this filter.
		return countPatternOcc(q.Where, drop) == dDirect+1
	}
	if try(x, y) {
		return x, y, true
	}
	if try(y, x) {
		return y, x, true
	}
	return "", "", false
}

// directTripleOcc counts occurrences of the variable in the group's
// direct triple/path elements.
func directTripleOcc(g *sparql.Group, name string) int {
	n := 0
	is := func(t sparql.Term) {
		if t.Kind == sparql.TermVar && t.Value == name {
			n++
		}
	}
	for _, el := range g.Elems {
		switch t := el.(type) {
		case *sparql.TriplePattern:
			is(t.S)
			is(t.P)
			is(t.O)
		case *sparql.PathPattern:
			is(t.S)
			is(t.O)
		}
	}
	return n
}

// countPatternOcc counts every syntactic occurrence of the variable
// in the pattern tree of one scope: triple/path/GRAPH positions,
// filter and bind expressions (including EXISTS bodies — matches
// there observe outer bindings), VALUES columns. Subqueries count one
// occurrence when they project the variable and are otherwise opaque
// (their interior is a different scope).
func countPatternOcc(p sparql.Pattern, name string) int {
	n := 0
	term := func(t sparql.Term) {
		if t.Kind == sparql.TermVar && t.Value == name {
			n++
		}
	}
	var exprOcc func(e sparql.Expr)
	exprOcc = func(e sparql.Expr) {
		sparql.WalkExpr(e, func(x sparql.Expr) bool {
			switch t := x.(type) {
			case *sparql.TermExpr:
				term(t.Term)
			case *sparql.ExistsExpr:
				n += countPatternOcc(t.Pattern, name)
			}
			return true
		})
	}
	var walk func(p sparql.Pattern)
	walk = func(p sparql.Pattern) {
		if p == nil {
			return
		}
		switch t := p.(type) {
		case *sparql.TriplePattern:
			term(t.S)
			term(t.P)
			term(t.O)
		case *sparql.PathPattern:
			term(t.S)
			term(t.O)
		case *sparql.Group:
			for _, el := range t.Elems {
				walk(el)
			}
		case *sparql.Union:
			walk(t.Left)
			walk(t.Right)
		case *sparql.Optional:
			walk(t.Inner)
		case *sparql.GraphGraph:
			term(t.Name)
			walk(t.Inner)
		case *sparql.MinusGraph:
			walk(t.Inner)
		case *sparql.ServiceGraph:
			term(t.Name)
			walk(t.Inner)
		case *sparql.Filter:
			exprOcc(t.Constraint)
		case *sparql.Bind:
			exprOcc(t.Expr)
			term(t.Var)
		case *sparql.InlineData:
			for _, v := range t.Vars {
				term(v)
			}
		case *sparql.SubSelect:
			if t.Query != nil && t.Query.ProjectedVars()[name] {
				n++
			}
		}
	}
	walk(p)
	return n
}

// isAsTarget reports whether the variable is rebound by an AS alias in
// the projection or GROUP BY.
func isAsTarget(q *sparql.Query, name string) bool {
	for _, it := range q.Select {
		if it.Expr != nil && it.Var.Kind == sparql.TermVar && it.Var.Value == name {
			return true
		}
	}
	for _, gk := range q.Mods.GroupBy {
		if gk.AsVar && gk.Var.Kind == sparql.TermVar && gk.Var.Value == name {
			return true
		}
	}
	return false
}
