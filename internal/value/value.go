// Package value is the one definition of what a SPARQL value is in this
// engine: how a term's text is read as a number, the effective boolean
// value, the ordering behind =, <, ORDER BY and MIN/MAX, the strict
// operators and builtins, and which kind of term a text is. The
// evaluator (internal/eval), the static folder (internal/lint) and the
// aggregation and sort operators (internal/exec) all call these
// kernels; they differ in control flow (rows, abstract states, running
// group state) but never in what a value means. A strict form is one
// whose result is an error as soon as any operand is: callers evaluate
// the operands, propagate errors their own way, and hand the kernel
// plain values. The package imports only the standard library.
package value

import (
	"regexp"
	"strconv"
	"strings"
)

// Value is a runtime SPARQL value. The store is untyped text, so the
// numeric interpretation is by lexical form; booleans are the texts
// "true" and "false".
type Value struct {
	lex   string
	num   float64
	isNum bool
}

// Text reads a term's text as a value: numeric when the whole text
// parses as a float (so "1e3", "+1" and "NaN" are numbers and "" is
// not), plain otherwise. After its sign, a float starts with a digit or
// '.', or is "inf", "infinity" or "nan" in any case; other texts (an
// IRI, a name such as "info" or "Italy") skip ParseFloat, whose error
// for them would allocate.
func Text(s string) Value {
	if d := strings.TrimLeft(s, "+-"); d != "" && (strings.IndexByte("0123456789.", d[0]) >= 0 ||
		strings.EqualFold(d, "inf") || strings.EqualFold(d, "infinity") || strings.EqualFold(d, "nan")) {
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return Value{lex: s, num: n, isNum: true}
		}
	}
	return Value{lex: s}
}

// Str is a value that is never numeric whatever its text: an IRI, a
// language-tagged literal, the result of a string builtin.
func Str(s string) Value { return Value{lex: s} }

// Num is a computed number; its text is the shortest form that parses
// back to n.
func Num(n float64) Value {
	return Value{lex: strconv.FormatFloat(n, 'g', -1, 64), num: n, isNum: true}
}

// Bool is the result of a comparison or logical operator.
func Bool(b bool) Value {
	if b {
		return Value{lex: "true"}
	}
	return Value{lex: "false"}
}

// Lex returns the lexical form: what a result cell shows.
func (v Value) Lex() string { return v.lex }

// IsNum reports whether the value takes part in arithmetic and numeric
// comparison; Float is its number then.
func (v Value) IsNum() bool { return v.isNum }

// Float returns the numeric interpretation (0 when IsNum is false).
func (v Value) Float() float64 { return v.num }

// Truthy is the effective boolean value: a number is true unless zero,
// any other text unless empty or "false".
func (v Value) Truthy() bool {
	if v.isNum {
		return v.num != 0
	}
	return v.lex != "" && v.lex != "false"
}

// Compare orders numerically when both operands are numeric, else
// lexicographically by text. NaN compares equal to every number.
func Compare(l, r Value) int {
	if l.isNum && r.isNum {
		switch {
		case l.num < r.num:
			return -1
		case l.num > r.num:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(l.lex, r.lex)
}

// Binary applies a strict binary operator. ok is false for an
// expression error: arithmetic on a non-number, division by zero, an
// operator this engine does not have.
func Binary(op string, l, r Value) (v Value, ok bool) {
	switch op {
	case "=":
		return Bool(Compare(l, r) == 0), true
	case "!=":
		return Bool(Compare(l, r) != 0), true
	case "<":
		return Bool(Compare(l, r) < 0), true
	case ">":
		return Bool(Compare(l, r) > 0), true
	case "<=":
		return Bool(Compare(l, r) <= 0), true
	case ">=":
		return Bool(Compare(l, r) >= 0), true
	case "+", "-", "*", "/":
		if !l.isNum || !r.isNum {
			return Value{}, false
		}
		switch op {
		case "+":
			return Num(l.num + r.num), true
		case "-":
			return Num(l.num - r.num), true
		case "*":
			return Num(l.num * r.num), true
		}
		if r.num == 0 {
			return Value{}, false
		}
		return Num(l.num / r.num), true
	}
	return Value{}, false
}

// Unary applies "!" (negated effective boolean value), "-" (an error on
// a non-number) or "+" (the operand unchanged).
func Unary(op string, x Value) (v Value, ok bool) {
	switch op {
	case "!":
		return Bool(!x.Truthy()), true
	case "-":
		if !x.isNum {
			return Value{}, false
		}
		return Num(-x.num), true
	}
	return x, true
}

// Variadic is the Arity of a builtin that takes any number of
// arguments: callers left-fold Call over them, starting from Str("").
const Variadic = -1

// Arity returns how many arguments the strict builtin name takes: 1, 2
// or Variadic, and 0 when name is not a strict builtin (the non-strict
// ones, BOUND IF COALESCE REGEX EXISTS IN, need the caller's row).
// Arguments beyond the arity are never evaluated.
func Arity(name string) int {
	switch name {
	case "STR", "LANG", "DATATYPE", "STRLEN", "UCASE", "LCASE",
		"ABS", "CEIL", "FLOOR", "ROUND",
		"ISIRI", "ISURI", "ISLITERAL", "ISBLANK", "ISNUMERIC":
		return 1
	case "CONTAINS", "STRSTARTS", "STRENDS", "SAMETERM":
		return 2
	case "CONCAT":
		return Variadic
	}
	return 0
}

// Call applies the strict builtin name to its arguments (b is ignored
// by one-argument builtins). ok is false for an expression error: a
// numeric builtin on a non-number, a name Arity does not know.
func Call(name string, a, b Value) (v Value, ok bool) {
	switch name {
	case "STR":
		return Str(a.lex), true
	case "LANG", "DATATYPE":
		// The store keeps lexical forms only; tags and datatypes are
		// not preserved at evaluation time.
		return Str(""), true
	case "STRLEN":
		return Num(float64(len(a.lex))), true
	case "UCASE":
		return Str(strings.ToUpper(a.lex)), true
	case "LCASE":
		return Str(strings.ToLower(a.lex)), true
	case "CONTAINS":
		return Bool(strings.Contains(a.lex, b.lex)), true
	case "STRSTARTS":
		return Bool(strings.HasPrefix(a.lex, b.lex)), true
	case "STRENDS":
		return Bool(strings.HasSuffix(a.lex, b.lex)), true
	case "CONCAT":
		return Str(a.lex + b.lex), true
	case "SAMETERM":
		return Bool(a.lex == b.lex), true
	case "ISIRI", "ISURI":
		return Bool(KindOf(a.lex) == KindIRI), true
	case "ISLITERAL":
		return Bool(KindOf(a.lex) == KindLiteral), true
	case "ISBLANK":
		return Bool(KindOf(a.lex) == KindBlank), true
	case "ISNUMERIC":
		return Bool(a.isNum), true
	case "ABS", "CEIL", "FLOOR", "ROUND":
		if !a.isNum {
			return Value{}, false
		}
		switch name {
		case "ABS":
			if a.num < 0 {
				return Num(-a.num), true
			}
			return a, true
		case "CEIL":
			return Num(ceil(a.num)), true
		case "FLOOR":
			return Num(floor(a.num)), true
		}
		return Num(floor(a.num + 0.5)), true
	}
	return Value{}, false
}

// Regex is REGEX(text, pattern, flags), compiling the pattern for this
// one call; a caller that tests many texts against one pattern compiles
// it once with CompileRegex and matches with RegexMatch. How a missing
// or erroring flags argument is treated is the caller's control flow; it
// passes Str("") for "no flags".
func Regex(text, pattern, flags Value) (v Value, ok bool) {
	re, ok := CompileRegex(pattern, flags)
	if !ok {
		return Value{}, false
	}
	return RegexMatch(re, text), true
}

// CompileRegex compiles REGEX's pattern under its flags: of the flags
// only "i" has an effect, and a pattern that does not compile is an
// expression error (ok=false, re nil).
func CompileRegex(pattern, flags Value) (re *regexp.Regexp, ok bool) {
	expr := pattern.lex
	if strings.Contains(flags.lex, "i") {
		expr = "(?i)" + expr
	}
	re, err := regexp.Compile(expr)
	return re, err == nil
}

// RegexMatch is REGEX's answer for text under a compiled pattern.
func RegexMatch(re *regexp.Regexp, text Value) Value {
	return Bool(re.MatchString(text.lex))
}

func ceil(f float64) float64 {
	i := float64(int64(f))
	if f > i {
		return i + 1
	}
	return i
}

func floor(f float64) float64 {
	i := float64(int64(f))
	if f < i {
		return i - 1
	}
	return i
}

// Kind classifies a term's text. The store's dictionary keeps terms
// undecorated (IRIs without angle brackets, literals without quotes),
// so the result serializers, which must emit "uri" / "literal" /
// "bnode" cells, and the isIRI / isLiteral / isBlank builtins ask the
// same question of the same text and must get the same answer.
type Kind int

const (
	// KindLiteral is the default: any text that is not clearly an IRI
	// or a blank node is a plain literal.
	KindLiteral Kind = iota
	// KindIRI marks a text that parses as an absolute IRI.
	KindIRI
	// KindBlank marks a blank-node label ("_:"-prefixed).
	KindBlank
)

// KindOf classifies a term's text. The heuristic mirrors how terms
// enter the dictionary: blank nodes keep their "_:" prefix; IRIs
// arrive from <...> syntax or prefixed-name expansion and are absolute
// (RFC 3986 scheme ":" hier-part) without whitespace, quotes, or angle
// brackets; everything else was a literal's lexical form.
func KindOf(text string) Kind {
	if strings.HasPrefix(text, "_:") {
		return KindBlank
	}
	if isAbsoluteIRI(text) {
		return KindIRI
	}
	return KindLiteral
}

// isAbsoluteIRI reports whether text looks like scheme:rest with a
// valid scheme (ALPHA *(ALPHA / DIGIT / "+" / "-" / ".")) and no
// characters that cannot appear in an IRI.
func isAbsoluteIRI(text string) bool {
	colon := strings.IndexByte(text, ':')
	if colon <= 0 {
		return false
	}
	for i := 0; i < colon; i++ {
		c := text[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return false
		}
	}
	if colon == len(text)-1 {
		return false
	}
	for i := colon + 1; i < len(text); i++ {
		switch c := text[i]; c {
		case ' ', '\t', '\n', '\r', '"', '<', '>', '{', '}', '|', '\\', '^', '`':
			return false
		default:
			if c < 0x20 {
				return false
			}
		}
	}
	return true
}
