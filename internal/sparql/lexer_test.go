package sparql

import (
	"testing"
	"unicode/utf8"
)

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	l := NewLexer(src)
	var out []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.Kind == EOF {
			return out
		}
		out = append(out, tok)
	}
}

func TestLexKinds(t *testing.T) {
	tests := []struct {
		src  string
		want []TokenKind
	}{
		{"SELECT * WHERE", []TokenKind{Ident, Star, Ident}},
		{"?x $y", []TokenKind{Var, Var}},
		{"<http://ex/a> <urn:x>", []TokenKind{IRIRef, IRIRef}},
		{"foaf:name :bare a", []TokenKind{PName, PName, A}},
		{"_:b1 [] ()", []TokenKind{BlankNode, ANON, NIL}},
		// "( )" and "[ ]" with interior whitespace are NIL and ANON per
		// the SPARQL grammar; non-empty brackets lex as delimiters.
		{"{ } ( ) [ ] . ; ,", []TokenKind{LBrace, RBrace, NIL, ANON, Dot, Semicolon, Comma}},
		{"( ?x ) [ ?y ]", []TokenKind{LParen, Var, RParen, LBracket, Var, RBracket}},
		{"= != < > <= >= && || !", []TokenKind{Eq, Neq, Lt, Gt, Le, Ge, AndAnd, OrOr, Bang}},
		{"+ - * / | ^ ^^", []TokenKind{Plus, Minus, Star, Slash, Pipe, Caret, CaretCaret}},
		{"42 3.14 .5 1e9 1E-4", []TokenKind{NumberLit, NumberLit, NumberLit, NumberLit, NumberLit}},
		{`"str" 'str2' @en-GB`, []TokenKind{StringLit, StringLit, LangTag}},
	}
	for _, tc := range tests {
		toks := lexAll(t, tc.src)
		if len(toks) != len(tc.want) {
			t.Errorf("lex(%q): %d tokens, want %d (%v)", tc.src, len(toks), len(tc.want), toks)
			continue
		}
		for i, k := range tc.want {
			if toks[i].Kind != k {
				t.Errorf("lex(%q)[%d] = %v, want %v", tc.src, i, toks[i].Kind, k)
			}
		}
	}
}

func TestLexIRIVersusLess(t *testing.T) {
	// "< " with space is the operator; "<a>" is an IRI.
	toks := lexAll(t, "?x < 5")
	if toks[1].Kind != Lt {
		t.Errorf("kind = %v, want <", toks[1].Kind)
	}
	toks2 := lexAll(t, "?x <a> ?y")
	if toks2[1].Kind != IRIRef || toks2[1].Text != "a" {
		t.Errorf("tok = %+v, want IRI(a)", toks2[1])
	}
	// "<= " is always the operator.
	toks3 := lexAll(t, "?x <= ?y")
	if toks3[1].Kind != Le {
		t.Errorf("kind = %v, want <=", toks3[1].Kind)
	}
}

func TestLexQuestionAmbiguity(t *testing.T) {
	// Path modifier '?' after an IRI vs. a variable.
	toks := lexAll(t, "<a>? ?x")
	if toks[1].Kind != Question {
		t.Errorf("kind = %v, want bare ?", toks[1].Kind)
	}
	if toks[2].Kind != Var || toks[2].Text != "x" {
		t.Errorf("tok = %+v, want ?x", toks[2])
	}
}

func TestLexUnicodeEscapes(t *testing.T) {
	toks := lexAll(t, `"aéb"`)
	if toks[0].Text != "aéb" {
		t.Errorf("text = %q, want aéb", toks[0].Text)
	}
	toks2 := lexAll(t, `"\U0001F600"`)
	if toks2[0].Text != "😀" {
		t.Errorf("text = %q", toks2[0].Text)
	}
}

func TestLexTrailingDotInPName(t *testing.T) {
	// "foaf:name." — the dot terminates the statement, not the local name.
	toks := lexAll(t, "foaf:name.")
	if len(toks) != 2 || toks[0].Kind != PName || toks[0].Text != "foaf:name" || toks[1].Kind != Dot {
		t.Errorf("toks = %+v", toks)
	}
}

func TestLexComments(t *testing.T) {
	toks := lexAll(t, "SELECT # hi there\n ?x")
	if len(toks) != 2 || toks[1].Kind != Var {
		t.Errorf("toks = %+v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	const src = "SELECT\n  ?x"
	toks := lexAll(t, src)
	if toks[0].Pos != 0 || toks[1].Pos != 9 {
		t.Errorf("offsets = %d, %d, want 0, 9", toks[0].Pos, toks[1].Pos)
	}
	if p := PositionAt(src, toks[0].Pos); p.String() != "1:1" {
		t.Errorf("first pos = %+v, want 1:1", p)
	}
	if p := PositionAt(src, toks[1].Pos); p.String() != "2:3" {
		t.Errorf("second pos = %+v, want 2:3", p)
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		`"unterminated`,
		`"bad \q escape"`,
		"\"newline\nin string\"",
		"&",
		"@ 5",
	}
	for _, src := range bad {
		l := NewLexer(src)
		var err error
		for {
			var tok Token
			tok, err = l.Next()
			if err != nil || tok.Kind == EOF {
				break
			}
		}
		if err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexLongStrings(t *testing.T) {
	toks := lexAll(t, `"""a "quoted" thing
over lines"""`)
	want := "a \"quoted\" thing\nover lines"
	if toks[0].Text != want {
		t.Errorf("text = %q, want %q", toks[0].Text, want)
	}
}

// TestASCIIClassMatchesRunePredicates holds the name scanners' ASCII
// table to the rune predicates it stands in for, on every ASCII byte.
func TestASCIIClassMatchesRunePredicates(t *testing.T) {
	for c := 0; c < utf8.RuneSelf; c++ {
		r, class := rune(c), asciiClass[c]
		for _, tc := range []struct {
			name string
			bit  uint8
			want bool
		}{
			{"PN_CHARS_BASE", cBase, isPNCharsBase(r)},
			{"PN_CHARS", cChars, isPNChars(r)},
			{"VARNAME start", cVar, isVarNameStart(r)},
			{"VARNAME continuation", cVar, isVarNameCont(r)},
			{"'.'", cDot, r == '.'},
			{"':'", cColon, r == ':'},
		} {
			if got := class&tc.bit != 0; got != tc.want {
				t.Errorf("%q: %s is %v in asciiClass, %v by the rune predicate", r, tc.name, got, tc.want)
			}
		}
	}
}
