package lint

import (
	"fmt"

	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// This file is an abstract constant folder over the runtime expression
// semantics. What a value is and what a strict operator or builtin
// does to one is internal/value, the same kernels the evaluator calls;
// what is written here is only the abstraction (a strict form folds as
// "all operands known → call the kernel") and, for the non-strict
// forms, the same control flow as internal/eval/expr.go. Soundness
// contract: when fold says an expression is Known(v), every row
// evaluates it to v; errAlways means every row yields an expression
// error; dropAlways means every row yields an error OR a falsy value
// (either way a FILTER drops the row). Anything weaker is unknown.
// eval's closed-expression differential test pins the agreement.

// state is the abstract result of folding an expression.
type state int

const (
	known      state = iota // the same value on every row
	errAlways               // an expression error on every row
	dropAlways              // error or falsy on every row: a filter always drops
	unknown
)

// sval pairs a state with its value (valid only when st == known).
type sval struct {
	st state
	v  value.Value
}

func knownV(v value.Value) sval { return sval{st: known, v: v} }
func knownB(b bool) sval        { return knownV(value.Bool(b)) }
func errS() sval                { return sval{st: errAlways} }
func unknownS() sval            { return sval{st: unknown} }

// kernel lifts a value kernel's result: ok=false is the expression
// error.
func kernel(v value.Value, ok bool) sval {
	if !ok {
		return errS()
	}
	return knownV(v)
}

// dropClass reports whether the state guarantees "error or falsy" —
// the filter-dropping class. Known falsy values qualify.
func (s sval) dropClass() bool {
	switch s.st {
	case errAlways, dropAlways:
		return true
	case known:
		return !s.v.Truthy()
	}
	return false
}

// folder folds expressions under a prefix environment and a set of
// dead variables of a scope (variables no pattern of the query can
// bind, which therefore error in every strict position).
type folder struct {
	prefixes sparql.Prefixes
	sc       *sparql.Scope
	dead     sparql.VarSet
}

// newFolder folds in scope sc, where the variables live binds are the
// ones that are not dead.
func newFolder(sc *sparql.Scope, prefixes sparql.Prefixes, live sparql.VarSet) *folder {
	return &folder{prefixes: prefixes, sc: sc, dead: sc.Mentioned.AndNot(live)}
}

func (f *folder) isDead(name string) bool { return f.sc.In(f.dead, name) }

// fold abstracts eval's eval().
func (f *folder) fold(e sparql.Expr) sval {
	switch n := e.(type) {
	case *sparql.TermExpr:
		switch n.Term.Kind {
		case sparql.TermVar:
			if f.isDead(n.Term.Value) {
				return errS()
			}
			return unknownS()
		case sparql.TermLiteral:
			if n.Term.Lang != "" {
				// A language-tagged literal is never a number.
				return knownV(value.Str(n.Term.Value))
			}
			return knownV(value.Text(n.Term.Value))
		case sparql.TermIRI:
			return knownV(value.Str(f.prefixes.Expand(n.Term.Value, n.Term.PrefixedForm)))
		default:
			return errS()
		}
	case *sparql.BinaryExpr:
		return f.foldBinary(n)
	case *sparql.UnaryExpr:
		x := f.fold(n.X)
		switch {
		case x.st == known:
			return kernel(value.Unary(n.Op, x.v))
		case x.st == errAlways:
			return errS()
		case n.Op != "!" && n.Op != "-":
			// Unary plus passes the operand through unchanged, so the
			// abstract state passes through too.
			return x
		}
		// dropAlways includes usable falsy values, whose negation is
		// true; nothing is guaranteed.
		return unknownS()
	case *sparql.FuncCall:
		return f.foldFunc(n)
	case *sparql.ExistsExpr:
		return unknownS()
	case *sparql.InExpr:
		return f.foldIn(n)
	}
	// Aggregates in row context always error (eval), as does a nil or
	// unknown node.
	return errS()
}

func (f *folder) foldBinary(n *sparql.BinaryExpr) sval {
	switch n.Op {
	case "&&":
		l, r := f.fold(n.L), f.fold(n.R)
		if l.st == known && r.st == known {
			return knownB(l.v.Truthy() && r.v.Truthy())
		}
		// One side known false forces false regardless of the other
		// (error-tolerant AND).
		if l.st == known && !l.v.Truthy() || r.st == known && !r.v.Truthy() {
			return knownB(false)
		}
		// Any operand in the drop class keeps AND in the drop class:
		// the result is false (other side false) or an error.
		if l.dropClass() || r.dropClass() {
			return sval{st: dropAlways}
		}
		return unknownS()
	case "||":
		l, r := f.fold(n.L), f.fold(n.R)
		if l.st == known && r.st == known {
			return knownB(l.v.Truthy() || r.v.Truthy())
		}
		if l.st == known && l.v.Truthy() || r.st == known && r.v.Truthy() {
			return knownB(true)
		}
		// OR only drops when both sides are error-or-falsy.
		if l.dropClass() && r.dropClass() {
			return sval{st: dropAlways}
		}
		return unknownS()
	}
	// Strict operators: either operand erroring errors the whole
	// expression.
	l := f.fold(n.L)
	if l.st == errAlways {
		return errS()
	}
	r := f.fold(n.R)
	if r.st == errAlways {
		return errS()
	}
	if l.st != known || r.st != known {
		return unknownS()
	}
	return kernel(value.Binary(n.Op, l.v, r.v))
}

func (f *folder) foldIn(n *sparql.InExpr) sval {
	x := f.fold(n.X)
	if x.st == errAlways {
		return errS()
	}
	if x.st != known {
		return unknownS()
	}
	found := false
	decided := true
	for _, item := range n.List {
		v := f.fold(item)
		switch v.st {
		case known:
			if value.Compare(x.v, v.v) == 0 {
				found = true
			}
		case errAlways:
			// Erroring items are silently skipped by eval.
		default:
			decided = false
		}
		if found {
			break
		}
	}
	if !found && !decided {
		return unknownS()
	}
	return knownB(found != n.Not)
}

func (f *folder) foldFunc(n *sparql.FuncCall) sval {
	arg := func(i int) sval {
		if i >= len(n.Args) {
			return errS()
		}
		return f.fold(n.Args[i])
	}
	switch n.Name {
	case "BOUND":
		if len(n.Args) == 1 {
			if te, ok := n.Args[0].(*sparql.TermExpr); ok && te.Term.Kind == sparql.TermVar {
				if f.isDead(te.Term.Value) {
					return knownB(false)
				}
				return unknownS()
			}
		}
		return errS()
	case "REGEX":
		x, pat := arg(0), arg(1)
		if x.st == errAlways || (x.st == known && pat.st == errAlways) {
			return errS()
		}
		if x.st != known || pat.st != known {
			return unknownS()
		}
		flags := arg(2)
		switch flags.st {
		case known:
		case errAlways:
			// eval reads a missing or failing flags argument as none.
			flags.v = value.Str("")
		default:
			return unknownS()
		}
		return kernel(value.Regex(x.v, pat.v, flags.v))
	case "IF":
		c := arg(0)
		switch c.st {
		case errAlways:
			return errS()
		case known:
			if c.v.Truthy() {
				return arg(1)
			}
			return arg(2)
		default:
			return unknownS()
		}
	case "COALESCE":
		for i := range n.Args {
			a := arg(i)
			switch a.st {
			case errAlways:
				continue // always skipped
			case known:
				return a
			default:
				// This argument may or may not error per row; folding
				// cannot pick a branch.
				return unknownS()
			}
		}
		return errS() // no argument ever succeeds
	}
	// Everything else is strict (or unknown, arity 0: eval errors
	// without touching the arguments): operands fold in evaluation
	// order, and once all are known the kernel decides.
	k := value.Arity(n.Name)
	if k == value.Variadic {
		acc := value.Str("")
		for _, a := range n.Args {
			v := f.fold(a)
			if v.st != known {
				return strictOperand(v)
			}
			acc, _ = value.Call(n.Name, acc, v.v)
		}
		return knownV(acc)
	}
	if k == 0 || len(n.Args) < k {
		return errS()
	}
	x := f.fold(n.Args[0])
	if x.st != known {
		return strictOperand(x)
	}
	var y sval
	if k == 2 {
		if y = f.fold(n.Args[1]); y.st != known {
			return strictOperand(y)
		}
	}
	return kernel(value.Call(n.Name, x.v, y.v))
}

// strictOperand is the state of a strict call whose next operand, in
// evaluation order, did not fold to a value: an error on every row if
// the operand is one, otherwise nothing is guaranteed.
func strictOperand(s sval) sval {
	if s.st == errAlways {
		return errS()
	}
	return unknownS()
}

// ---------- satisfiability over conjuncts ----------

// conjuncts splits e on top-level && into its operands: a filter whose
// constraint is a conjunction drops a row as soon as any operand is
// false or errors.
func conjuncts(e sparql.Expr, out []sparql.Expr) []sparql.Expr {
	if be, ok := e.(*sparql.BinaryExpr); ok && be.Op == "&&" {
		out = conjuncts(be.L, out)
		return conjuncts(be.R, out)
	}
	return append(out, e)
}

// varConstraint is a conjunct of the shape ?x OP const (normalized so
// the variable is on the left).
type varConstraint struct {
	variable string
	op       string
	val      value.Value
}

var flipOp = map[string]string{
	"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<=",
}

// asVarConstraint matches `?x OP rhs` or `lhs OP ?x` where the
// constant side folds to a known value.
func (f *folder) asVarConstraint(e sparql.Expr) (varConstraint, bool) {
	be, ok := e.(*sparql.BinaryExpr)
	if !ok {
		return varConstraint{}, false
	}
	if _, cmp := flipOp[be.Op]; !cmp {
		return varConstraint{}, false
	}
	if v, ok := asVar(be.L); ok {
		if c := f.fold(be.R); c.st == known {
			return varConstraint{variable: v, op: be.Op, val: c.v}, true
		}
		return varConstraint{}, false
	}
	if v, ok := asVar(be.R); ok {
		if c := f.fold(be.L); c.st == known {
			return varConstraint{variable: v, op: flipOp[be.Op], val: c.v}, true
		}
	}
	return varConstraint{}, false
}

func asVar(e sparql.Expr) (string, bool) {
	te, ok := e.(*sparql.TermExpr)
	if !ok || te.Term.Kind != sparql.TermVar {
		return "", false
	}
	return te.Term.Value, true
}

// selfComparison matches `?x OP ?x` conjuncts that can never hold:
// with ?x bound both sides compare equal (!=, <, > are false); with ?x
// unbound the comparison errors. Either way the row drops.
func selfComparison(e sparql.Expr) (string, string, bool) {
	be, ok := e.(*sparql.BinaryExpr)
	if !ok {
		return "", "", false
	}
	if be.Op != "!=" && be.Op != "<" && be.Op != ">" {
		return "", "", false
	}
	l, lok := asVar(be.L)
	r, rok := asVar(be.R)
	if lok && rok && l == r {
		return l, be.Op, true
	}
	return "", "", false
}

// decideAgainstEq decides the constraint `?x OP c2` given that the
// conjunction also requires ?x = eq. Returns (satisfiable, decided).
//
// The equality pins down a lot: if eq is numeric, any x with x = eq
// must itself be numeric with the same number (a non-numeric x would
// need lexical equality with eq's numeric lexical form, which would
// make it numeric — contradiction). If eq is non-numeric, x = eq
// forces x's text to be eq's exactly, so x's runtime value is
// value.Text of it and every comparison is fully decided.
func decideAgainstEq(eq value.Value, op string, c2 value.Value) (bool, bool) {
	x := eq
	switch {
	case !eq.IsNum():
		x = value.Text(eq.Lex())
	case c2.IsNum():
		// x is numeric with eq's number; its spelling (any float form)
		// plays no part against another number.
	case value.Text(c2.Lex()).IsNum():
		// Numeric x against a never-numeric value whose text spells a
		// float: the comparison falls back to x's unknown spelling.
		return false, false
	default:
		// c2's text cannot be any float spelling, so x != c2 always;
		// the order of the two depends on x's spelling.
		if op != "=" && op != "!=" {
			return false, false
		}
	}
	holds, _ := value.Binary(op, x, c2)
	return holds.Truthy(), true
}

// unsatisfiable reports whether no single value of the variable can
// satisfy every constraint at once. It is deliberately conservative:
// the engine compares numerically only when both sides are numeric,
// falling back to lexicographic comparison, so an interval that is
// empty numerically may still admit non-numeric values (e.g.
// ?x > 10 && ?x < 2 is satisfied by "1a"). Unsatisfiability requires
// emptiness in both regimes.
func unsatisfiable(cs []varConstraint) bool {
	if len(cs) < 2 {
		return false
	}
	// Equalities decide everything else.
	for i, c := range cs {
		if c.op != "=" {
			continue
		}
		for j, d := range cs {
			if i == j {
				continue
			}
			if sat, decided := decideAgainstEq(c.val, d.op, d.val); decided && !sat {
				return true
			}
		}
	}
	// Interval reasoning over the strict orders. Mixed numeric and
	// non-numeric bounds switch comparison regimes per row; skip.
	var nums, texts []varConstraint
	for _, c := range cs {
		switch c.op {
		case "<", "<=", ">", ">=":
			if c.val.IsNum() {
				nums = append(nums, c)
			} else {
				texts = append(texts, c)
			}
		}
	}
	if len(nums) > 0 && len(texts) == 0 {
		// A numeric bound compares numerically against numeric x and
		// lexicographically against non-numeric x: both interval
		// regimes must be empty.
		return emptyNumInterval(nums) && emptyLexInterval(nums)
	}
	if len(texts) > 0 && len(nums) == 0 {
		// Non-numeric bounds always compare lexicographically.
		return emptyLexInterval(texts)
	}
	return false
}

func emptyNumInterval(cs []varConstraint) bool {
	var lo, hi float64
	loStrict, hiStrict := false, false
	hasLo, hasHi := false, false
	for _, c := range cs {
		v := c.val.Float()
		switch c.op {
		case ">", ">=":
			s := c.op == ">"
			if !hasLo || v > lo {
				lo, loStrict, hasLo = v, s, true
			} else if v == lo && s {
				loStrict = true
			}
		case "<", "<=":
			s := c.op == "<"
			if !hasHi || v < hi {
				hi, hiStrict, hasHi = v, s, true
			} else if v == hi && s {
				hiStrict = true
			}
		}
	}
	if !hasLo || !hasHi {
		return false
	}
	// Floats are dense enough for the engine's purposes: lo < hi is
	// treated as satisfiable.
	return lo > hi || (lo == hi && (loStrict || hiStrict))
}

func emptyLexInterval(cs []varConstraint) bool {
	var lo, hi string
	loStrict, hiStrict := false, false
	hasLo, hasHi := false, false
	for _, c := range cs {
		v := c.val.Lex()
		switch c.op {
		case ">", ">=":
			s := c.op == ">"
			if !hasLo || v > lo {
				lo, loStrict, hasLo = v, s, true
			} else if v == lo && s {
				loStrict = true
			}
		case "<", "<=":
			s := c.op == "<"
			if !hasHi || v < hi {
				hi, hiStrict, hasHi = v, s, true
			} else if v == hi && s {
				hiStrict = true
			}
		}
	}
	if !hasLo || !hasHi {
		return false
	}
	// Strings are dense under lexicographic order upward (append a
	// character), so only reversed or point-with-strict intervals are
	// empty.
	return lo > hi || (lo == hi && (loStrict || hiStrict))
}

// unsatReason inspects one filter constraint and reports why it can
// never keep a row, if provable. The empty string means satisfiable
// (as far as the folder can tell).
func (f *folder) unsatReason(e sparql.Expr) (string, bool) {
	switch s := f.fold(e); s.st {
	case known:
		if !s.v.Truthy() {
			return fmt.Sprintf("constraint is constant %q (effective boolean value false)", s.v.Lex()), true
		}
		return "", false
	case errAlways:
		return "constraint errors on every solution (filters treat errors as false)", true
	case dropAlways:
		return "constraint is false or errors on every solution", true
	}
	cj := conjuncts(e, nil)
	perVar := make(map[string][]varConstraint)
	for _, c := range cj {
		if v, op, ok := selfComparison(c); ok {
			return fmt.Sprintf("self-comparison ?%s %s ?%s can never hold", v, op, v), true
		}
		if vc, ok := f.asVarConstraint(c); ok {
			perVar[vc.variable] = append(perVar[vc.variable], vc)
		}
	}
	for v, cs := range perVar {
		if unsatisfiable(cs) {
			return fmt.Sprintf("contradictory constraints on ?%s", v), true
		}
	}
	return "", false
}
