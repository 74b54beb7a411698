package eval

import (
	"fmt"
	"sort"
	"strings"

	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// This file is the expression evaluator's control flow. What a value
// is, and what every strict operator and builtin does to one, is
// defined once in internal/value, shared with the linter's folder
// (internal/lint/fold.go) and the aggregation operators; only the forms
// that need a row or tolerate an erroring operand live here.

var errEval = fmt.Errorf("eval: expression error")

// checked turns a kernel's ok=false into the expression error.
func checked(v value.Value, ok bool) (value.Value, error) {
	if !ok {
		return value.Value{}, errEval
	}
	return v, nil
}

// env is one solution row as the expression evaluator sees it: the
// legacy map binding and the columnar batch row both implement it, so
// FILTER/BIND/aggregate semantics are defined once. lookupVar
// materializes text lazily (the columnar row converts an ID only when
// an expression actually touches it).
type env interface {
	// lookupVar returns the bound text of a variable.
	lookupVar(name string) (string, bool)
	// eachBound calls fn for every bound variable name.
	eachBound(fn func(name string))
	// exists evaluates an EXISTS pattern under this row.
	exists(ev *evaluator, p sparql.Pattern) (bool, error)
}

func (b binding) lookupVar(name string) (string, bool) {
	v, ok := b[name]
	return v, ok
}

func (b binding) eachBound(fn func(string)) {
	for k := range b {
		fn(k)
	}
}

func (b binding) exists(ev *evaluator, p sparql.Pattern) (bool, error) {
	rows, err := ev.pattern(p, []binding{b})
	if err != nil {
		return false, err
	}
	return len(rows) > 0, nil
}

// eval evaluates an expression under one row. Unbound variables and
// type errors return errEval (SPARQL expression errors), which filters
// treat as false.
func (ev *evaluator) eval(e sparql.Expr, b env) (value.Value, error) {
	switch n := e.(type) {
	case *sparql.TermExpr:
		switch n.Term.Kind {
		case sparql.TermVar:
			if v, ok := b.lookupVar(n.Term.Value); ok {
				return value.Text(v), nil
			}
			return value.Value{}, errEval
		case sparql.TermLiteral:
			if n.Term.Lang != "" {
				// A language-tagged literal is never a number.
				return value.Str(n.Term.Value), nil
			}
			return value.Text(n.Term.Value), nil
		case sparql.TermIRI:
			return value.Str(ev.prefixes.Expand(n.Term.Value, n.Term.PrefixedForm)), nil
		default:
			return value.Value{}, errEval
		}
	case *sparql.BinaryExpr:
		return ev.evalBinary(n, b)
	case *sparql.UnaryExpr:
		x, err := ev.eval(n.X, b)
		if err != nil {
			return value.Value{}, err
		}
		return checked(value.Unary(n.Op, x))
	case *sparql.FuncCall:
		return ev.evalFunc(n, b)
	case *sparql.ExistsExpr:
		found, err := b.exists(ev, n.Pattern)
		if err != nil {
			return value.Value{}, errEval
		}
		return value.Bool(found != n.Not), nil
	case *sparql.InExpr:
		x, err := ev.eval(n.X, b)
		if err != nil {
			return value.Value{}, err
		}
		found := false
		for _, item := range n.List {
			// An erroring list item is skipped, not an error.
			v, err := ev.eval(item, b)
			if err == nil && value.Compare(x, v) == 0 {
				found = true
				break
			}
		}
		return value.Bool(found != n.Not), nil
	}
	// Aggregates need group context; anything else is not an expression.
	return value.Value{}, errEval
}

func (ev *evaluator) evalBinary(n *sparql.BinaryExpr, b env) (value.Value, error) {
	switch n.Op {
	case "&&":
		l, errL := ev.eval(n.L, b)
		r, errR := ev.eval(n.R, b)
		// SPARQL logical AND tolerates one error when the other operand
		// is false.
		if errL == nil && errR == nil {
			return value.Bool(l.Truthy() && r.Truthy()), nil
		}
		if errL == nil && !l.Truthy() || errR == nil && !r.Truthy() {
			return value.Bool(false), nil
		}
		return value.Value{}, errEval
	case "||":
		l, errL := ev.eval(n.L, b)
		r, errR := ev.eval(n.R, b)
		if errL == nil && errR == nil {
			return value.Bool(l.Truthy() || r.Truthy()), nil
		}
		if errL == nil && l.Truthy() || errR == nil && r.Truthy() {
			return value.Bool(true), nil
		}
		return value.Value{}, errEval
	}
	l, err := ev.eval(n.L, b)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ev.eval(n.R, b)
	if err != nil {
		return value.Value{}, err
	}
	return checked(value.Binary(n.Op, l, r))
}

func (ev *evaluator) evalFunc(n *sparql.FuncCall, b env) (value.Value, error) {
	arg := func(i int) (value.Value, error) {
		if i >= len(n.Args) {
			return value.Value{}, errEval
		}
		return ev.eval(n.Args[i], b)
	}
	switch n.Name {
	case "BOUND":
		if len(n.Args) == 1 {
			if te, ok := n.Args[0].(*sparql.TermExpr); ok && te.Term.Kind == sparql.TermVar {
				_, bound := b.lookupVar(te.Term.Value)
				return value.Bool(bound), nil
			}
		}
		return value.Value{}, errEval
	case "REGEX":
		x, err := arg(0)
		if err != nil {
			return value.Value{}, err
		}
		pat, err := arg(1)
		if err != nil {
			return value.Value{}, err
		}
		// A missing or erroring flags argument means no flags.
		flags, err := arg(2)
		if err != nil {
			flags = value.Str("")
		}
		return checked(value.Regex(x, pat, flags))
	case "IF":
		c, err := arg(0)
		if err != nil {
			return value.Value{}, err
		}
		if c.Truthy() {
			return arg(1)
		}
		return arg(2)
	case "COALESCE":
		for i := range n.Args {
			if v, err := arg(i); err == nil {
				return v, nil
			}
		}
		return value.Value{}, errEval
	}
	// Everything else is strict (or unknown, arity 0: an error without
	// touching the arguments): evaluate the operands, any error is the
	// call's error, and the kernel does the rest.
	k := value.Arity(n.Name)
	if k == value.Variadic {
		acc := value.Str("")
		for _, a := range n.Args {
			v, err := ev.eval(a, b)
			if err != nil {
				return value.Value{}, err
			}
			acc, _ = value.Call(n.Name, acc, v)
		}
		return acc, nil
	}
	if k == 0 || len(n.Args) < k {
		return value.Value{}, errEval
	}
	x, err := ev.eval(n.Args[0], b)
	if err != nil {
		return value.Value{}, err
	}
	var y value.Value
	if k == 2 {
		if y, err = ev.eval(n.Args[1], b); err != nil {
			return value.Value{}, err
		}
	}
	return checked(value.Call(n.Name, x, y))
}

// evalAggregateExpr evaluates an expression that may contain aggregate
// nodes, over a group's member rows. Non-aggregate subexpressions are
// evaluated against the group's first member (they are group keys,
// constant within the group).
func (ev *evaluator) evalAggregateExpr(e sparql.Expr, members []env) (value.Value, error) {
	if agg, ok := e.(*sparql.AggregateExpr); ok {
		return ev.computeAggregate(agg, members)
	}
	switch n := e.(type) {
	case *sparql.BinaryExpr:
		l, err := ev.evalAggregateExpr(n.L, members)
		if err != nil {
			return value.Value{}, err
		}
		r, err := ev.evalAggregateExpr(n.R, members)
		if err != nil {
			return value.Value{}, err
		}
		return binaryOverResults(n.Op, l, r)
	case *sparql.UnaryExpr:
		x, err := ev.evalAggregateExpr(n.X, members)
		if err != nil {
			return value.Value{}, err
		}
		return checked(value.Unary(n.Op, value.Text(x.Lex())))
	default:
		if len(members) == 0 {
			return value.Value{}, errEval
		}
		return ev.eval(e, members[0])
	}
}

// binaryOverResults applies a binary operator to two operands already
// computed over a group. Each is read again from its text, as a result
// cell would be (so a string builtin's result that spells a number is
// one here), and both are present, so && and || have no error to
// tolerate.
func binaryOverResults(op string, l, r value.Value) (value.Value, error) {
	l, r = value.Text(l.Lex()), value.Text(r.Lex())
	switch op {
	case "&&":
		return value.Bool(l.Truthy() && r.Truthy()), nil
	case "||":
		return value.Bool(l.Truthy() || r.Truthy()), nil
	}
	return checked(value.Binary(op, l, r))
}

// evalAggRow is evalAggregateExpr's mirror over one emitted columnar
// group row: hidden aggregate-output variables read their finalized
// slot, and everything else keeps the legacy semantics exactly —
// Binary/Unary chains recurse strictly (either side's error is the
// expression's error, with none of plain eval's &&/|| tolerance), and
// any other leaf evaluates against the row as "the group's first
// member", which for a synthetic empty group (empty = true) means an
// unconditional expression error.
func (ev *evaluator) evalAggRow(e sparql.Expr, b env, empty bool) (value.Value, error) {
	switch n := e.(type) {
	case *sparql.TermExpr:
		if n.Term.Kind == sparql.TermVar && isHiddenAggVar(n.Term.Value) {
			name := n.Term.Value
			v, ok := b.lookupVar(name)
			if name[len(hiddenAggPrefix)] == hiddenConcatMark {
				// GROUP_CONCAT never errors and its result stays
				// non-numeric at the top level (the legacy value is a
				// bare lexical form); an unbound slot is the empty
				// concatenation.
				return value.Str(v), nil
			}
			if !ok {
				// The aggregate finalized to unbound — exactly the
				// states where computeAggregate errors (MIN/MAX/SAMPLE
				// of nothing, AVG with no numerics).
				return value.Value{}, errEval
			}
			return value.Text(v), nil
		}
	case *sparql.BinaryExpr:
		l, err := ev.evalAggRow(n.L, b, empty)
		if err != nil {
			return value.Value{}, err
		}
		r, err := ev.evalAggRow(n.R, b, empty)
		if err != nil {
			return value.Value{}, err
		}
		return binaryOverResults(n.Op, l, r)
	case *sparql.UnaryExpr:
		x, err := ev.evalAggRow(n.X, b, empty)
		if err != nil {
			return value.Value{}, err
		}
		return checked(value.Unary(n.Op, value.Text(x.Lex())))
	}
	if empty {
		return value.Value{}, errEval
	}
	return ev.eval(e, b)
}

func (ev *evaluator) computeAggregate(agg *sparql.AggregateExpr, members []env) (value.Value, error) {
	var vals []value.Value
	if !agg.Star {
		for _, m := range members {
			if v, err := ev.eval(agg.Arg, m); err == nil {
				vals = append(vals, v)
			}
		}
	}
	if agg.Distinct {
		seen := map[string]bool{}
		var ded []value.Value
		for _, v := range vals {
			if !seen[v.Lex()] {
				seen[v.Lex()] = true
				ded = append(ded, v)
			}
		}
		vals = ded
	}
	switch agg.Name {
	case "COUNT":
		if agg.Star {
			return value.Num(float64(len(members))), nil
		}
		return value.Num(float64(len(vals))), nil
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		for _, v := range vals {
			if v.IsNum() {
				sum += v.Float()
				n++
			}
		}
		if agg.Name == "SUM" {
			return value.Num(sum), nil
		}
		if n == 0 {
			return value.Value{}, errEval
		}
		return value.Num(sum / float64(n)), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return value.Value{}, errEval
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := value.Compare(v, best)
			if agg.Name == "MIN" && c < 0 || agg.Name == "MAX" && c > 0 {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(vals) == 0 {
			return value.Value{}, errEval
		}
		return vals[0], nil
	case "GROUP_CONCAT":
		sep := " "
		if agg.HasSep {
			sep = agg.Separator
		}
		parts := make([]string, 0, len(vals))
		for _, v := range vals {
			parts = append(parts, v.Lex())
		}
		sort.Strings(parts) // deterministic output
		return value.Str(strings.Join(parts, sep)), nil
	}
	return value.Value{}, errEval
}
