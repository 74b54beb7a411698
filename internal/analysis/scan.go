package analysis

import "sparqlog/internal/sparql"

// Features is everything the per-query tables read off a query's
// syntax, gathered by Scan in one walk.
type Features struct {
	// Keywords is Table 2's keyword set over the whole query: its
	// modifiers and projection, and the bodies of its subqueries and
	// EXISTS constraints (a subquery's type excepted).
	Keywords Keywords
	// Operators is Table 3's operator set of the body.
	Operators OperatorSet
	// Triples and Paths count the triple and property-path patterns of
	// the body, which here and below is the WHERE clause with its
	// subqueries' WHERE clauses and the EXISTS bodies of its FILTERs
	// and BINDs: what sparql.Walk reaches from it.
	Triples, Paths int
	// Subquery reports a subquery in the body (Section 4.4).
	Subquery bool
	// Collapses are the body's FILTER(?x = ?y) pairs, x and y distinct,
	// in walk order: the canonical-graph node merges of footnote 20.
	Collapses [][2]string

	// The fragment features of Section 5.2: whether the body leaves
	// AOF (triples, And, Opt, Filter), and, read as far as it stays
	// in it, whether it has an OPTIONAL, a FILTER and a filter that
	// is not simple (Definition 5.2); and whether a triple of the body
	// has a variable predicate.
	beyondAOF, opt, filter, complexFilter, varPredicate bool
}

// TripleCount is Figure 1's size of the query: its body's triple
// patterns, each property-path pattern counting as one triple (the
// triple-block counting of Section 4.2).
func (f *Features) TripleCount() int { return f.Triples + f.Paths }

// reach is which of Features' parts a node of the walk counts for.
type reach uint8

const (
	inBody reach = 1 << iota // the body: counts, collapses, subqueries
	inOps                    // Table 3's operator set: the body outside "other" nodes
	inAOF                    // the fragment features: the body while it stays in AOF
)

// Scan walks q once and returns its Features.
func Scan(q *sparql.Query) Features {
	var s scanner
	switch q.Type {
	case sparql.SelectQuery:
		s.f.Keywords.set(KwSelect)
	case sparql.AskQuery:
		s.f.Keywords.set(KwAsk)
	case sparql.DescribeQuery:
		s.f.Keywords.set(KwDescribe)
	case sparql.ConstructQuery:
		s.f.Keywords.set(KwConstruct)
	}
	s.query(q, inBody|inOps|inAOF)
	return s.f
}

type scanner struct{ f Features }

// query scans q's keywords, other than its type, and its WHERE clause
// at reach r; the EXISTS bodies of its projection and modifiers count
// for keywords only.
func (s *scanner) query(q *sparql.Query, r reach) {
	k := &s.f.Keywords
	m := &q.Mods
	for _, on := range [...]struct {
		w  Keyword
		on bool
	}{
		{KwDistinct, q.Distinct}, {KwReduced, q.Reduced},
		{KwLimit, m.HasLimit}, {KwOffset, m.HasOffset},
		{KwOrderBy, len(m.OrderBy) > 0}, {KwGroupBy, len(m.GroupBy) > 0},
		{KwHaving, len(m.Having) > 0}, {KwValues, q.TrailingValues != nil},
	} {
		if on.on {
			k.set(on.w)
		}
	}
	s.pattern(q.Where, r)
	for _, it := range q.Select {
		s.expr(it.Expr, 0)
	}
	for _, h := range m.Having {
		s.expr(h, 0)
	}
	for _, o := range m.OrderBy {
		s.expr(o.Expr, 0)
	}
	for _, g := range m.GroupBy {
		s.expr(g.Expr, 0)
	}
}

// pattern scans p, a node at reach r.
func (s *scanner) pattern(p sparql.Pattern, r reach) {
	f := &s.f
	k := &f.Keywords
	ops := &f.Operators
	body, inOperators, aof := r&inBody != 0, r&inOps != 0, r&inAOF != 0
	switch n := p.(type) {
	case *sparql.TriplePattern:
		if body {
			f.Triples++
			f.varPredicate = f.varPredicate || n.P.IsVar()
		}
	case *sparql.PathPattern:
		k.set(KwPropertyPath)
		if body {
			f.Paths++
		}
		s.other(r)
	case *sparql.Group:
		if countJoinable(n) >= 2 {
			k.set(KwAnd)
			ops.And = ops.And || inOperators
		}
		for _, el := range n.Elems {
			s.pattern(el, r)
		}
	case *sparql.Union:
		k.set(KwUnion)
		ops.Union = ops.Union || inOperators
		r = s.leaveAOF(r)
		s.pattern(n.Left, r)
		s.pattern(n.Right, r)
	case *sparql.Optional:
		k.set(KwOpt)
		ops.Opt = ops.Opt || inOperators
		f.opt = f.opt || aof
		s.pattern(n.Inner, r)
	case *sparql.GraphGraph:
		k.set(KwGraph)
		ops.Graph = ops.Graph || inOperators
		s.pattern(n.Inner, s.leaveAOF(r))
	case *sparql.MinusGraph:
		k.set(KwMinus)
		s.pattern(n.Inner, s.other(r))
	case *sparql.ServiceGraph:
		k.set(KwService)
		s.pattern(n.Inner, s.other(r))
	case *sparql.Filter:
		k.set(KwFilter)
		ops.Filter = ops.Filter || inOperators
		if aof {
			f.filter = true
			f.complexFilter = f.complexFilter || !SimpleFilter(n.Constraint)
		}
		if x, y, ok := EqualityVars(n.Constraint); body && ok {
			f.Collapses = append(f.Collapses, [2]string{x, y})
		}
		s.expr(n.Constraint, r)
	case *sparql.Bind:
		k.set(KwBind)
		s.expr(n.Expr, s.other(r))
	case *sparql.InlineData:
		k.set(KwValues)
		s.other(r)
	case *sparql.SubSelect:
		k.set(KwSubQuery)
		f.Subquery = f.Subquery || body
		r = s.other(r)
		if n.Query != nil {
			s.query(n.Query, r)
		}
	}
}

// expr scans the aggregates and EXISTS constraints of e, an expression
// at reach r.
func (s *scanner) expr(e sparql.Expr, r reach) {
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		switch t := x.(type) {
		case *sparql.ExistsExpr:
			if t.Not {
				s.f.Keywords.set(KwNotExists)
			} else {
				s.f.Keywords.set(KwExists)
			}
			s.pattern(t.Pattern, s.other(r))
		case *sparql.AggregateExpr:
			if w, ok := aggregates[t.Name]; ok {
				s.f.Keywords.set(w)
			}
		}
		return true
	})
}

// leaveAOF records a node of reach r that is one of Table 3's operators
// but beyond AOF, and returns the reach of what is under it.
func (s *scanner) leaveAOF(r reach) reach {
	s.f.beyondAOF = s.f.beyondAOF || r&inAOF != 0
	return r &^ inAOF
}

// other records a node of reach r that is beyond Table 3's operators
// (Section 4.3's "other features": BIND, MINUS, subqueries, property
// paths, SERVICE, VALUES, EXISTS), and returns the reach of what is
// under it.
func (s *scanner) other(r reach) reach {
	s.f.Operators.Other = s.f.Operators.Other || r&inOps != 0
	return s.leaveAOF(r) &^ inOps
}
