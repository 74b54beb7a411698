package sparql_test

import (
	"errors"
	"testing"

	"sparqlog/internal/sparql"
)

// naivePosition walks src byte by byte up to off, as the lexer once did
// for every byte it read: a newline starts the next line at column 1,
// every other byte moves one column.
func naivePosition(src string, off int) sparql.Position {
	p := sparql.Position{Offset: off, Line: 1, Col: 1}
	for i := 0; i < off; i++ {
		if src[i] == '\n' {
			p.Line++
			p.Col = 1
		} else {
			p.Col++
		}
	}
	return p
}

// checkPositions is the position oracle: every token's offset, and the
// offset of a syntax error from the lexer or the parser, maps to the
// line and column of the naive walk, and the error message names them.
func checkPositions(t *testing.T, src string) {
	t.Helper()
	l := sparql.NewLexer(src)
	last := -1
	for {
		tok, err := l.Next()
		if err != nil {
			checkError(t, src, err)
			break
		}
		if tok.Pos <= last && tok.Kind != sparql.EOF || tok.Pos > len(src) {
			t.Fatalf("%q: token %v %q at offset %d after one at %d", src, tok.Kind, tok.Text, tok.Pos, last)
		}
		last = tok.Pos
		if got, want := sparql.PositionAt(src, tok.Pos), naivePosition(src, tok.Pos); got != want {
			t.Fatalf("%q: token %q at offset %d: PositionAt = %+v, naive walk %+v", src, tok.Text, tok.Pos, got, want)
		}
		if tok.Kind == sparql.EOF {
			break
		}
	}
	if _, err := sparql.Parse(src); err != nil {
		checkError(t, src, err)
	}
}

func checkError(t *testing.T, src string, err error) {
	t.Helper()
	var se *sparql.SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("%q: error %T is not a SyntaxError: %v", src, err, err)
	}
	if se.Pos.Offset < 0 || se.Pos.Offset > len(src) {
		t.Fatalf("%q: error offset %d outside the source: %v", src, se.Pos.Offset, err)
	}
	if want := naivePosition(src, se.Pos.Offset); se.Pos != want {
		t.Fatalf("%q: error at %+v, naive walk to its offset gives %+v", src, se.Pos, want)
	}
	if want := "sparql: syntax error at " + se.Pos.String() + ": " + se.Msg; err.Error() != want {
		t.Fatalf("%q: message %q, want %q", src, err.Error(), want)
	}
}

// positionCases are inputs whose positions are easy to get wrong:
// several lines, CRLF line ends, tabs, comments, multibyte runes, and
// errors at the end of the input.
var positionCases = []struct {
	src string
	at  string // the error's line:col, "" when the query parses
}{
	{"SELECT *\nWHERE { ?s ?p }", "2:15"},
	{"SELECT *\r\nWHERE {\r\n\t?s ?p ?o\r\n\t&\r\n}", "4:2"},
	{"SELECT * # a comment\n# another ?x\nWHERE { ?s ?p ?o } LIMIT", "3:25"},
	{"SELECT ?é WHERE {\n  ?é <p> \"ünï\" ;\n      <q> ?ö . } ORDER BY", "3:27"},
	{"SELECT * WHERE { ?s <p> \"unterminated\n", "1:25"},
	{"SELECT * WHERE { ?s <p> \"\"\"long\nstring", "1:25"},
	{"SELECT * WHERE {\n\t?s <p> \"bad \\q\" }", "2:9"},
	{"# only a comment", "1:17"},
	{"", "1:1"},
	{"\n\n\n", "4:1"},
	{"SELECT * WHERE { ?s ?p ?o } #trailing", ""},
	{"PREFIX ex: <http://ex/>\r\nSELECT ?x {\r\n ?x ex:p \"a\\u00e9\"@en }", ""},
	{"SELECT ?x {\t?x <p> ?y }\t@", "1:25"},
	{"SELECT ?x { ?x <p> ?y \u00a0}", "1:23"},
}

func TestSyntaxErrorPositionOracle(t *testing.T) {
	for _, tc := range positionCases {
		checkPositions(t, tc.src)
		_, err := sparql.Parse(tc.src)
		switch {
		case tc.at == "" && err != nil:
			t.Errorf("%q: %v", tc.src, err)
		case tc.at != "" && err == nil:
			t.Errorf("%q parses, want an error at %s", tc.src, tc.at)
		case tc.at != "":
			if got := err.(*sparql.SyntaxError).Pos.String(); got != tc.at {
				t.Errorf("%q: error at %s, want %s (%v)", tc.src, got, tc.at, err)
			}
		}
	}
	for _, src := range parseSeeds {
		checkPositions(t, src)
	}
}

// FuzzSyntaxErrorPosition runs the position oracle on arbitrary input,
// from FuzzParse's seeds and the position cases.
func FuzzSyntaxErrorPosition(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, tc := range positionCases {
		f.Add(tc.src)
	}
	f.Fuzz(checkPositions)
}
