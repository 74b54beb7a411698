package eval

import (
	"fmt"

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
// executor's batch row implements it, and so does the map binding of
// the reference evaluator in this package's tests, so FILTER/BIND/
// aggregate semantics are defined once. lookupVar materializes text
// lazily (the batch row converts an ID only when an expression
// actually touches it).
type env interface {
	// lookupVar returns the bound text of a variable.
	lookupVar(name string) (string, bool)
	// exists evaluates an EXISTS pattern under this row.
	exists(ev *evaluator, p sparql.Pattern) (bool, error)
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

// evalAggRow evaluates a finishing expression (a SELECT item, HAVING,
// an ORDER BY key) on one emitted group row: hidden aggregate-output
// variables read their finalized slot, Binary/Unary chains recurse
// strictly (either side's error is the expression's error, with none of
// plain eval's &&/|| tolerance), and any other leaf evaluates against
// the row as "the group's first member" (the compiler captured every
// variable it reads), which for a synthetic empty group (empty = true)
// means an unconditional expression error.
func (ev *evaluator) evalAggRow(e sparql.Expr, b env, empty bool) (value.Value, error) {
	switch n := e.(type) {
	case *sparql.TermExpr:
		if n.Term.Kind == sparql.TermVar && isHiddenAggVar(n.Term.Value) {
			name := n.Term.Value
			v, ok := b.lookupVar(name)
			if name[len(hiddenAggPrefix)] == hiddenConcatMark {
				// GROUP_CONCAT never errors and its result stays
				// non-numeric at the top level (a bare lexical form);
				// an unbound slot is the empty concatenation.
				return value.Str(v), nil
			}
			if !ok {
				// The aggregate finalized to unbound: MIN/MAX/SAMPLE
				// of nothing, AVG with no numerics, an unknown name.
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
