package sparql

import (
	"iter"
	"math/bits"
	"slices"
)

// VarSet is a set of one Scope's variable numbers, one bit each. Every
// scope question is a VarSet or an operation on two of them. Numbers
// below 64 have a word of their own, so the sets of a query with no
// more variables than that allocate nothing.
type VarSet struct {
	lo   uint64
	high []uint64 // numbers 64 and up, 64 to a word
}

// word returns the bits of numbers 64w to 64w+63.
func (s VarSet) word(w int) uint64 {
	switch {
	case w == 0:
		return s.lo
	case w <= len(s.high):
		return s.high[w-1]
	}
	return 0
}

// Has reports whether variable i is in the set.
func (s VarSet) Has(i int) bool { return s.word(i>>6)&(1<<(i&63)) != 0 }

// Len returns the number of variables in the set.
func (s VarSet) Len() int {
	n := 0
	for w := range 1 + len(s.high) {
		n += bits.OnesCount64(s.word(w))
	}
	return n
}

// All yields the set's variable numbers in ascending order.
func (s VarSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for wi := range 1 + len(s.high) {
			for w := s.word(wi); w != 0; w &= w - 1 {
				if !yield(wi<<6 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// Or returns the union of s and t as a new set.
func (s VarSet) Or(t VarSet) VarSet {
	out := VarSet{lo: s.lo, high: slices.Clone(s.high)}
	out.union(t)
	return out
}

// AndNot returns the variables of s that are not in t, as a new set.
func (s VarSet) AndNot(t VarSet) VarSet {
	out := VarSet{lo: s.lo &^ t.lo, high: slices.Clone(s.high)}
	for i := range out.high {
		out.high[i] &^= t.word(i + 1)
	}
	return out
}

// And returns the variables in both s and t, as a new set.
func (s VarSet) And(t VarSet) VarSet {
	out := VarSet{lo: s.lo & t.lo}
	if n := min(len(s.high), len(t.high)); n > 0 {
		out.high = make([]uint64, n)
		for i := range out.high {
			out.high[i] = s.high[i] & t.high[i]
		}
	}
	return out
}

// or sets bits b in word w.
func (s *VarSet) or(w int, b uint64) {
	if w == 0 {
		s.lo |= b
		return
	}
	for len(s.high) < w {
		s.high = append(s.high, 0)
	}
	s.high[w-1] |= b
}

func (s *VarSet) add(i int) { s.or(i>>6, 1<<(i&63)) }

func (s *VarSet) union(t VarSet) {
	for w := range 1 + len(t.high) {
		s.or(w, t.word(w))
	}
}

// Scope is the variable analysis of one query, computed by ScopeOf (or
// Analyze) in a single walk: the query's variables numbered densely,
// and every set a scope question needs as a VarSet over those numbers.
// It is the one place that decides which variables a pattern mentions,
// binds or has in scope; the linter and the study's projection test
// read it, and the evaluator's slots are its numbers. Its sets must not
// be modified.
//
// A term the parser numbered (every variable and blank node label of a
// parsed text) is numbered here by an array lookup on the parser's
// number; only a term built by other code is looked up by name. So the
// terms of a query's tree must come from its own parse.
type Scope struct {
	Query *Query

	// Names holds the variables by number, in the pre-order of a Walk
	// of the WHERE clause (a BIND's target before its expression), then
	// the trailing VALUES, the modifiers' expressions, and what only the
	// projection or a GROUP BY alias names. A triple's or path's blank
	// node label is numbered too, as "_:label": eval binds it. The
	// evaluator's slot i holds Names[i].
	Names []string

	// Mentioned is every variable the WHERE clause mentions: in
	// patterns, in FILTER and BIND expressions (EXISTS bodies
	// included), in MINUS bodies, as a GRAPH or SERVICE name, and in a
	// subquery's projection (its interior is its own Scope). Blank
	// nodes are not variables.
	Mentioned VarSet
	// InScope is the variables in scope in the WHERE clause (SPARQL 1.1
	// §18.2.1), except those only a BIND introduces, which are in
	// BindOnly. FILTER (EXISTS included) and MINUS bind nothing in
	// scope.
	InScope, BindOnly VarSet
	// Projected is what the query returns: the SELECT list (aliases
	// included) or the described variables; for SELECT * and DESCRIBE
	// *, InScope and BindOnly plus the trailing VALUES columns, whether
	// or not a solution binds them. ASK and CONSTRUCT project nothing.
	Projected VarSet
	// Bindable is every variable a solution of the query can carry:
	// pattern positions, GRAPH names, BIND targets, VALUES columns
	// (trailing ones too), subquery projections and GROUP BY aliases.
	// An EXISTS body and a MINUS body bind only inside themselves. A
	// variable Mentioned but not Bindable is unbound in every solution.
	Bindable VarSet
	// MinusOnly is what only MINUS bodies bind: bound inside one, and
	// in no solution of the query.
	MinusOnly VarSet

	subs map[*Query]*Scope
	// index is the inverse of Names, name to number, built by ScopeOf
	// only once Names holds more than scanNames; below that a name is
	// found by a scan of Names. It is never built on a read: a Scope
	// may be read concurrently.
	index map[string]int
	// byNum maps the parser's numbers to this scope's: byNum[n-1] is
	// one more than the number of the name the parser numbered n, 0
	// while that name has none.
	byNum []int32
	// loose is whether a name was numbered by its spelling alone (from a
	// term the parser did not number, or a subquery's projection); a
	// parser-numbered term that misses byNum is then looked up by name,
	// since its name may have a number already.
	loose bool
	// names and nums are the first storage of Names and byNum, so a
	// query with few variables allocates only its Scope.
	names [8]string
	nums  [8]int32
}

// scanNames is the most names a Scope numbers by a scan of Names; past
// it, ScopeOf builds index, so a query with many variables does not
// number them in quadratic time.
const scanNames = 16

// region is where a pattern's bindings are seen.
type region uint8

const (
	outward  region = iota // in the query's solutions
	inMinus                // only inside a MINUS body
	inExists               // only inside an EXISTS body
)

// ScopeOf analyses the variables of q and of each of its subqueries.
func ScopeOf(q *Query) *Scope {
	s := new(Scope)
	s.Analyze(q)
	return s
}

// Analyze makes s the Scope of q, as ScopeOf(q) returns it, in the
// storage s held: a caller that analyses one query after another
// reuses one Scope, and what it held before is gone.
func (s *Scope) Analyze(q *Query) {
	names, byNum := s.Names, s.byNum
	clear(names)
	clear(byNum)
	*s = Scope{Query: q}
	if names == nil {
		names, byNum = s.names[:0], s.nums[:0]
	}
	s.Names, s.byNum = names[:0], byNum[:0]
	if q.Where != nil {
		s.Mentioned = s.pattern(q.Where, outward)
	}
	var trailing VarSet
	if q.TrailingValues != nil {
		for _, v := range q.TrailingValues.Vars {
			if isVar(v) {
				s.bind(s.numberOf("", v), outward, &trailing)
			}
		}
	}
	// Only the EXISTS bodies of these expressions bind; the numbering
	// follows the evaluator's order.
	for _, it := range q.Select {
		s.expr(it.Expr)
	}
	for _, k := range q.Mods.OrderBy {
		s.expr(k.Expr)
	}
	for _, g := range q.Mods.GroupBy {
		s.expr(g.Expr)
	}
	for _, h := range q.Mods.Having {
		s.expr(h)
	}
	project := func(t Term) {
		if isVar(t) {
			s.Projected.add(s.numberOf("", t))
		}
	}
	star := false
	switch q.Type {
	case SelectQuery:
		star = q.SelectStar
		for _, it := range q.Select {
			project(it.Var)
		}
	case DescribeQuery:
		star = q.DescribeStar
		for _, t := range q.DescribeTerms {
			project(t)
		}
	}
	for _, g := range q.Mods.GroupBy {
		if isVar(g.Var) && g.AsVar {
			s.Bindable.add(s.numberOf("", g.Var))
		}
	}
	// A variable bound both by BIND and by a pattern is simply in scope.
	s.BindOnly = s.BindOnly.AndNot(s.InScope)
	s.MinusOnly = s.MinusOnly.AndNot(s.Bindable)
	if star {
		s.Projected.union(s.InScope)
		s.Projected.union(s.BindOnly)
		s.Projected.union(trailing)
	}
}

// In reports whether the named variable is in set.
func (s *Scope) In(set VarSet, name string) bool {
	i, ok := s.Find("", name)
	return ok && set.Has(i)
}

// NamesOf returns the names of set's variables, in number order.
func (s *Scope) NamesOf(set VarSet) []string {
	out := make([]string, 0, set.Len())
	for i := range set.All() {
		out = append(out, s.Names[i])
	}
	return out
}

// Sub returns the Scope of a subquery of the query: one in the WHERE
// clause, in an EXISTS body, or in a modifier's EXISTS. It is nil for a
// query that is none of these.
func (s *Scope) Sub(q *Query) *Scope { return s.subs[q] }

// Elems returns, per element of g, a group of the query, the variables
// the element mentions (Mentioned, element by element); a triple or
// path element's blank node labels count too, since within a group
// they join like variables. It walks g's elements as ScopeOf did, into
// a scratch Scope that shares s's numbering, and leaves s unchanged
// (its Names are capped, so the scratch cannot append into them).
func (s *Scope) Elems(g *Group) []VarSet {
	t := Scope{Names: s.Names[:len(s.Names):len(s.Names)], index: s.index, subs: s.subs, byNum: s.byNum, loose: s.loose}
	out := make([]VarSet, len(g.Elems))
	for i, el := range g.Elems {
		_, out[i] = t.element(el, outward)
	}
	return out
}

// Find returns the number of the name prefix+name, where prefix is ""
// for a variable and "_:" for a blank node label; the two are compared
// in place, not concatenated. It is for names from outside the tree,
// such as the evaluator's hidden ones.
func (s *Scope) Find(prefix, name string) (int, bool) {
	if s.index != nil {
		i, ok := s.index[prefix+name]
		return i, ok
	}
	for i, n := range s.Names {
		if len(n) == len(prefix)+len(name) && n[:len(prefix)] == prefix && n[len(prefix):] == name {
			return i, true
		}
	}
	return 0, false
}

// numberOf returns the number of a variable (prefix "") or blank node
// label (prefix "_:") term, numbering it next if it is new: by the
// parser's number when the term has one, otherwise by name.
func (s *Scope) numberOf(prefix string, t Term) int {
	n := int(t.num)
	if n == 0 {
		return s.number(prefix, t.Value)
	}
	if n > len(s.byNum) {
		// Past the length, the array holds zeros: Analyze clears all
		// that an analysis used.
		if n > cap(s.byNum) {
			s.byNum = append(make([]int32, 0, max(n, 2*cap(s.byNum))), s.byNum...)
		}
		s.byNum = s.byNum[:n]
	} else if i := s.byNum[n-1]; i > 0 {
		return int(i - 1)
	}
	var i int
	switch {
	case s.loose:
		i = s.number(prefix, t.Value)
	case prefix == "":
		i = s.add(t.Value)
	default:
		i = s.add(prefix + t.Value)
	}
	s.byNum[n-1] = int32(i + 1)
	return i
}

// number returns the number of the name prefix+name (see Find),
// numbering it next if it is new.
func (s *Scope) number(prefix, name string) int {
	if i, ok := s.Find(prefix, name); ok {
		return i
	}
	s.loose = true
	return s.add(prefix + name)
}

// add numbers a name that has no number yet.
func (s *Scope) add(name string) int {
	i := len(s.Names)
	s.Names = append(s.Names, name)
	switch {
	case s.index != nil:
		s.index[name] = i
	case len(s.Names) > scanNames:
		s.index = make(map[string]int, 2*len(s.Names))
		for j, n := range s.Names {
			s.index[n] = j
		}
	}
	return i
}

// bind records variable i as one a pattern of region r binds, where r
// is outward in scope too: scope is InScope, BindOnly or one for
// trailing VALUES columns.
func (s *Scope) bind(i int, r region, scope *VarSet) int {
	switch r {
	case outward:
		s.Bindable.add(i)
		scope.add(i)
	case inMinus:
		s.MinusOnly.add(i)
	}
	return i
}

// pattern walks one pattern node of region r and returns the
// variables it mentions.
func (s *Scope) pattern(p Pattern, r region) VarSet {
	m, _ := s.element(p, r)
	return m
}

// element is pattern, also returning p's set as a group element (see
// Elems): the same, plus a triple's or path's blank node labels. Both
// sets may be kept: callers read them and do not modify them.
func (s *Scope) element(p Pattern, r region) (m, edge VarSet) {
	switch n := p.(type) {
	case *TriplePattern:
		return s.nodes(r, n.S, n.P, n.O)
	case *PathPattern:
		return s.nodes(r, n.S, n.O)
	case *Group:
		for _, el := range n.Elems {
			m.union(s.pattern(el, r))
		}
	case *Union:
		m.union(s.pattern(n.Left, r))
		m.union(s.pattern(n.Right, r))
	case *Optional:
		m = s.pattern(n.Inner, r)
	case *GraphGraph:
		m, _ = s.nodes(r, n.Name)
		m.union(s.pattern(n.Inner, r))
	case *ServiceGraph:
		if isVar(n.Name) {
			i := s.numberOf("", n.Name)
			m.add(i)
			if r == outward {
				s.InScope.add(i)
			}
		}
		m.union(s.pattern(n.Inner, r))
	case *MinusGraph:
		if r == outward {
			r = inMinus
		}
		m = s.pattern(n.Inner, r)
	case *Filter:
		m = s.expr(n.Constraint)
	case *Bind:
		if isVar(n.Var) {
			m.add(s.bind(s.numberOf("", n.Var), r, &s.BindOnly))
		}
		m.union(s.expr(n.Expr))
	case *InlineData:
		for _, v := range n.Vars {
			if isVar(v) {
				m.add(s.bind(s.numberOf("", v), r, &s.InScope))
			}
		}
	case *SubSelect:
		if n.Query == nil {
			break
		}
		sub := s.subs[n.Query] // set already when Elems walks again
		if sub == nil {
			sub = ScopeOf(n.Query)
			if s.subs == nil {
				s.subs = make(map[*Query]*Scope)
			}
			s.subs[n.Query] = sub
		}
		for j := range sub.Projected.All() {
			m.add(s.bind(s.number("", sub.Names[j]), r, &s.InScope))
		}
	}
	return m, m
}

// nodes numbers the terms of a triple or path pattern (or a GRAPH
// name) of region r, records what they bind, and returns their
// variables, and their variables and blank node labels.
func (s *Scope) nodes(r region, ts ...Term) (vars, nodes VarSet) {
	var blanks VarSet
	for _, t := range ts {
		if isVar(t) {
			vars.add(s.bind(s.numberOf("", t), r, &s.InScope))
		} else if t.Kind == TermBlank {
			blanks.add(s.numberOf("_:", t))
		}
	}
	return vars, vars.Or(blanks)
}

// expr returns the variables an expression mentions, EXISTS bodies
// included; what those bodies bind stays inside them.
func (s *Scope) expr(e Expr) VarSet {
	var m VarSet
	WalkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *TermExpr:
			if isVar(t.Term) {
				m.add(s.numberOf("", t.Term))
			}
		case *ExistsExpr:
			m.union(s.pattern(t.Pattern, inExists))
		}
		return true
	})
	return m
}

func isVar(t Term) bool { return t.Kind == TermVar && t.Value != "" }
