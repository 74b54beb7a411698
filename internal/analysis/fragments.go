package analysis

import "sparqlog/internal/sparql"

// Fragments classifies a query into the fragment hierarchy of Section 5.2.
// All flags refer to the query body; AOF and its subclasses are only
// defined for Select and Ask queries.
type Fragments struct {
	// AOF: triple patterns with And, Opt, Filter only (Section 5).
	AOF bool
	// CQ: triple patterns and And only (Definition 3.1).
	CQ bool
	// CPF: triples, And, Filter (Definition 4.1).
	CPF bool
	// CQF: CPF with only simple filters (Definition 5.2).
	CQF bool
	// WellDesigned: Definition 5.3, checked on the binary fold of the
	// pattern. Only meaningful when AOF.
	WellDesigned bool
	// CQOF: well-designed with a pattern tree of interface width <= 1
	// (Definition 5.5). Only meaningful when AOF.
	CQOF bool
	// InterfaceWidth of the pattern tree; 0 for patterns without Opt.
	// Valid when WellDesigned.
	InterfaceWidth int
	// HasVarPredicate: some triple uses a variable in predicate position,
	// requiring hypergraph analysis (Section 6.2).
	HasVarPredicate bool
}

// ClassifyFragments computes the fragment membership of sc.Query from
// its Features f and its Scope sc.
func ClassifyFragments(f *Features, sc *sparql.Scope) Fragments {
	var fr Fragments
	q := sc.Query
	if q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery || q.Where == nil {
		return fr
	}
	fr.HasVarPredicate = f.varPredicate
	fr.AOF = !f.beyondAOF
	fr.CQ = fr.AOF && !f.opt && !f.filter
	fr.CPF = fr.AOF && !f.opt
	fr.CQF = fr.CPF && !f.complexFilter
	if !fr.AOF {
		return fr
	}
	// Without an OPTIONAL the fold has no Opt node and the pattern
	// tree is one node.
	fr.WellDesigned = true
	if f.opt {
		v := aofVars{sc}
		fr.WellDesigned = v.wellDesigned(q.Where, sparql.VarSet{})
		if fr.WellDesigned {
			fr.InterfaceWidth = v.interfaceWidth(q.Where)
		}
	}
	fr.CQOF = fr.WellDesigned && fr.InterfaceWidth <= 1
	return fr
}

// SimpleFilter implements Definition 5.2's filter condition: the
// constraint mentions at most one variable, or is exactly ?x = ?y. A
// constraint with an EXISTS body is not simple.
func SimpleFilter(e sparql.Expr) bool {
	first, simple := "", true
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		switch t := x.(type) {
		case *sparql.TermExpr:
			if v := t.Term; v.Kind == sparql.TermVar && v.Value != "" {
				if first == "" {
					first = v.Value
				} else if v.Value != first {
					simple = false
				}
			}
		case *sparql.ExistsExpr:
			simple = false
		}
		return simple
	})
	if simple {
		return true
	}
	_, _, ok := EqualityVars(e)
	return ok
}

// EqualityVars matches constraints of the exact form ?x = ?y with x
// and y distinct.
func EqualityVars(e sparql.Expr) (x, y string, ok bool) {
	be, isBin := e.(*sparql.BinaryExpr)
	if !isBin || be.Op != "=" {
		return "", "", false
	}
	l, lok := be.L.(*sparql.TermExpr)
	r, rok := be.R.(*sparql.TermExpr)
	if !lok || !rok || l.Term.Kind != sparql.TermVar || r.Term.Kind != sparql.TermVar || l.Term.Value == r.Term.Value {
		return "", "", false
	}
	return l.Term.Value, r.Term.Value, true
}

// aofVars decides the variable conditions of Section 5.2 for the
// groups of an AOF pattern, on the per-element variable sets of the
// query's Scope.
type aofVars struct{ sc *sparql.Scope }

// elems returns the variables each element of g mentions; the blank
// node labels Elems adds are not variables.
func (a aofVars) elems(g *sparql.Group) []sparql.VarSet {
	es := a.sc.Elems(g)
	for i := range es {
		es[i] = es[i].And(a.sc.Mentioned)
	}
	return es
}

// wellDesigned checks Definition 5.3 on the binary And/Opt algebra of
// p, a pattern of the AOF fragment, whose variables outside p are
// outside. A group folds left to right, each OPTIONAL becoming an Opt
// node whose left operand is the fold of the group's elements before
// it; for every Opt node, each variable of its right operand that its
// left one lacks must occur nowhere outside the node. A nested group is
// one operand of its enclosing group's fold: its OPTIONALs fold inside
// it, so one with nothing before it in its group has the unit pattern
// on its left ({ P { OPTIONAL { Q } } } is P And (unit Opt Q)).
func (a aofVars) wellDesigned(p sparql.Pattern, outside sparql.VarSet) bool {
	g, ok := p.(*sparql.Group)
	if !ok {
		return true // a triple or filter holds no Opt node
	}
	es := a.elems(g)
	var left sparql.VarSet // the variables of the fold so far
	for i, el := range g.Elems {
		// right is what occurs past el: the group's later elements and
		// everything outside the group.
		right := outside
		for _, e := range es[i+1:] {
			right = right.Or(e)
		}
		if o, ok := el.(*sparql.Optional); ok {
			if es[i].AndNot(left).And(right).Len() > 0 {
				return false
			}
			el = o.Inner
		}
		if !a.wellDesigned(el, left.Or(right)) {
			return false
		}
		left = left.Or(es[i])
	}
	return true
}

// interfaceWidth computes Example 5.4's interface width of the pattern
// tree of p, a well-designed AOF pattern: the most variables a node's
// conjunctive part shares with one of its child subtrees. A node is a
// group's triples and filters, nested groups flattened into it, and
// each OPTIONAL among them is a child: the Opt normal form, which
// rewrites (P1 Opt P2) And P3 to (P1 And P3) Opt P2 and preserves the
// semantics of well-designed patterns only. A nested group's OPTIONAL
// thus joins the enclosing node; on a well-designed pattern the
// variables it shares with that node are the ones it shares with its
// own left side in the group, so the width is the algebra's.
func (a aofVars) interfaceWidth(p sparql.Pattern) int {
	var node sparql.VarSet
	var kids []child
	a.flatten(p, &node, &kids)
	w := 0
	for _, c := range kids {
		w = max(w, node.And(c.vars).Len(), a.interfaceWidth(c.inner))
	}
	return w
}

// child is one OPTIONAL of a pattern-tree node and its variables.
type child struct {
	inner sparql.Pattern
	vars  sparql.VarSet
}

// flatten adds the variables of p's conjunctive part to node and its
// OPTIONALs to kids.
func (a aofVars) flatten(p sparql.Pattern, node *sparql.VarSet, kids *[]child) {
	g, ok := p.(*sparql.Group)
	if !ok {
		return // a node without children has width 0, whatever its variables
	}
	es := a.elems(g)
	for i, el := range g.Elems {
		switch n := el.(type) {
		case *sparql.Optional:
			*kids = append(*kids, child{n.Inner, es[i]})
		case *sparql.Group:
			a.flatten(n, node, kids)
		default:
			*node = node.Or(es[i])
		}
	}
}
