package value

import (
	"math"
	"testing"
)

// TestText pins the by-lexical-form numeric reading: a text is a
// number exactly when all of it parses as a float, and the text itself
// is kept as written.
func TestText(t *testing.T) {
	cases := []struct {
		text  string
		isNum bool
		num   float64
	}{
		{"", false, 0},
		{"42", true, 42},
		{"1e3", true, 1000},
		{"+1", true, 1},
		{"-0.5", true, -0.5},
		{"01", true, 1},
		{" 1", false, 0},
		{"1a", false, 0},
		{"true", false, 0},
		{"http://example.org/1", false, 0},
	}
	for _, tc := range cases {
		v := Text(tc.text)
		if v.Lex() != tc.text || v.IsNum() != tc.isNum || v.Float() != tc.num {
			t.Errorf("Text(%q) = (%q, %v, %v), want (%q, %v, %v)",
				tc.text, v.Lex(), v.IsNum(), v.Float(), tc.text, tc.isNum, tc.num)
		}
	}
	if v := Text("NaN"); !v.IsNum() || !math.IsNaN(v.Float()) {
		t.Errorf(`Text("NaN") = (%v, %v), want a numeric NaN`, v.IsNum(), v.Float())
	}
	if v := Str("42"); v.IsNum() || v.Lex() != "42" {
		t.Errorf(`Str("42") is numeric or lost its text: %+v`, v)
	}
	if v := Num(1000); v.Lex() != "1000" || !v.IsNum() {
		t.Errorf("Num(1000) = %+v", v)
	}
	if v := Num(0.1 + 0.2); Text(v.Lex()).Float() != 0.1+0.2 {
		t.Errorf("Num's text %q does not parse back to the number", v.Lex())
	}
}

func TestTruthy(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want bool
	}{
		{Bool(true), true},
		{Bool(false), false},
		{Text("0"), false},
		{Text("0.0"), false},
		{Text("2"), true},
		{Str("0"), true}, // a string, not the number zero
		{Text(""), false},
		{Text("false"), false},
		{Text("x"), true},
		{Text("NaN"), true},
	} {
		if got := tc.v.Truthy(); got != tc.want {
			t.Errorf("%+v.Truthy() = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// TestCompare pins the two regimes: numeric when both sides are
// numbers, by text otherwise, so a number against a string compares
// by spelling.
func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		l, r Value
		want int
	}{
		{Text("2"), Text("10"), -1}, // numeric
		{Str("2"), Text("10"), 1},   // mixed: "2" > "10" by text
		{Text("2"), Str("10"), 1},   // mixed, other side
		{Text("01"), Text("1"), 0},  // numerically equal spellings
		{Str("01"), Str("1"), -1},   // but different texts
		{Text("1e3"), Text("1000"), 0},
		{Text("10"), Text("9a"), -1}, // "9a" is not a number
		{Text("abc"), Text("abd"), -1},
		{Text(""), Text("a"), -1},
		{Num(3), Text("3.0"), 0},
		{Bool(true), Text("true"), 0}, // booleans are their texts
		{Text("NaN"), Text("1"), 0},   // NaN is neither below nor above
		{Text("-1"), Text("+1"), -1},
		{Text("urn:a"), Str("urn:a"), 0},
	} {
		if got := Compare(tc.l, tc.r); got != tc.want {
			t.Errorf("Compare(%+v, %+v) = %d, want %d", tc.l, tc.r, got, tc.want)
		}
	}
}

// shown renders a kernel's result for a table: the value's text, or
// "error" for an expression error.
func shown(v Value, ok bool) string {
	if !ok {
		return "error"
	}
	return v.Lex()
}

func TestBinaryAndUnary(t *testing.T) {
	for _, tc := range []struct {
		op   string
		l, r Value
		want string
	}{
		{"=", Text("01"), Text("1"), "true"},
		{"!=", Text("a"), Text("b"), "true"},
		{"<", Text("2"), Text("10"), "true"},
		{">", Str("2"), Text("10"), "true"},
		{"<=", Text("1"), Text("1"), "true"},
		{">=", Text("0"), Text("1"), "false"},
		{"+", Text("1"), Text("2"), "3"},
		{"-", Text("1"), Text("2"), "-1"},
		{"*", Text("1.5"), Text("2"), "3"},
		{"/", Text("1"), Text("4"), "0.25"},
		{"/", Text("1"), Text("0"), "error"},
		{"+", Text("1"), Text("x"), "error"},
		{"+", Str("1"), Text("2"), "error"}, // STR() results do not add
		{"%", Text("1"), Text("2"), "error"},
	} {
		if got := shown(Binary(tc.op, tc.l, tc.r)); got != tc.want {
			t.Errorf("%+v %s %+v = %s, want %s", tc.l, tc.op, tc.r, got, tc.want)
		}
	}
	for _, tc := range []struct {
		op   string
		x    Value
		want string
	}{
		{"!", Text("0"), "true"},
		{"!", Text("x"), "false"},
		{"-", Text("2"), "-2"},
		{"-", Text("x"), "error"},
		{"+", Text("x"), "x"},
	} {
		if got := shown(Unary(tc.op, tc.x)); got != tc.want {
			t.Errorf("%s%+v = %s, want %s", tc.op, tc.x, got, tc.want)
		}
	}
}

func TestCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b Value
		want string
		num  bool
	}{
		{"STR", Text("5"), Value{}, "5", false},
		{"LANG", Text("x"), Value{}, "", false},
		{"DATATYPE", Text("5"), Value{}, "", false},
		{"STRLEN", Text("héllo"), Value{}, "6", true}, // bytes, as the evaluator always counted
		{"UCASE", Text("aB"), Value{}, "AB", false},
		{"LCASE", Text("aB"), Value{}, "ab", false},
		{"CONTAINS", Text("abc"), Text("b"), "true", false},
		{"STRSTARTS", Text("abc"), Text("b"), "false", false},
		{"STRENDS", Text("abc"), Text("bc"), "true", false},
		{"CONCAT", Text("1"), Text("2"), "12", false},
		{"SAMETERM", Text("01"), Text("1"), "false", false},
		{"ABS", Text("-2"), Value{}, "2", true},
		{"ABS", Text("x"), Value{}, "error", false},
		{"CEIL", Text("1.2"), Value{}, "2", true},
		{"CEIL", Text("-1.2"), Value{}, "-1", true},
		{"FLOOR", Text("-1.2"), Value{}, "-2", true},
		{"ROUND", Text("2.5"), Value{}, "3", true},
		{"ROUND", Text("-2.5"), Value{}, "-2", true},
		{"ISIRI", Str("tel:1"), Value{}, "true", false},
		{"ISURI", Str("doi:10.1/x"), Value{}, "true", false},
		{"ISIRI", Text("plain"), Value{}, "false", false},
		{"ISLITERAL", Text("_:b1"), Value{}, "false", false},
		{"ISLITERAL", Text("plain"), Value{}, "true", false},
		{"ISBLANK", Text("_:b1"), Value{}, "true", false},
		{"ISBLANK", Text("urn:x"), Value{}, "false", false},
		{"ISNUMERIC", Text("1e3"), Value{}, "true", false},
		{"ISNUMERIC", Str("1e3"), Value{}, "false", false},
		{"NOSUCH", Text("1"), Value{}, "error", false},
	} {
		v, ok := Call(tc.name, tc.a, tc.b)
		if got := shown(v, ok); got != tc.want || v.IsNum() != tc.num {
			t.Errorf("%s(%+v, %+v) = %s (numeric %v), want %s (numeric %v)",
				tc.name, tc.a, tc.b, got, v.IsNum(), tc.want, tc.num)
		}
		if k := Arity(tc.name); (k == 0) != (tc.name == "NOSUCH") {
			t.Errorf("Arity(%s) = %d", tc.name, k)
		}
	}
	for _, name := range []string{"BOUND", "IF", "COALESCE", "REGEX", "EXISTS", "IN"} {
		if k := Arity(name); k != 0 {
			t.Errorf("Arity(%s) = %d: a non-strict form must not dispatch to Call", name, k)
		}
	}
}

func TestRegex(t *testing.T) {
	for _, tc := range []struct {
		text, pattern, flags, want string
	}{
		{"Hello", "^h", "", "false"},
		{"Hello", "^h", "i", "true"},
		{"Hello", "^h", "xi", "true"}, // other flags are ignored
		{"Hello", "l+o$", "", "true"},
		{"Hello", "(", "", "error"},
	} {
		if got := shown(Regex(Text(tc.text), Text(tc.pattern), Str(tc.flags))); got != tc.want {
			t.Errorf("REGEX(%q, %q, %q) = %s, want %s", tc.text, tc.pattern, tc.flags, got, tc.want)
		}
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		text string
		want Kind
	}{
		{"http://example.org/x", KindIRI},
		{"urn:isbn:123", KindIRI},
		{"mailto:a@b.c", KindIRI},
		{"tel:1", KindIRI},
		{"doi:10.1/x", KindIRI},
		{"_:b0", KindBlank},
		{"plain text", KindLiteral},
		{"42", KindLiteral},
		{"has:space in it", KindLiteral},
		{"9bad:scheme", KindLiteral},
		{":nocolonprefix", KindLiteral},
		{"scheme:", KindLiteral},
		{"", KindLiteral},
		{`said "hi"`, KindLiteral},
	}
	for _, tc := range cases {
		if got := KindOf(tc.text); got != tc.want {
			t.Errorf("KindOf(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}
