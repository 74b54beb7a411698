package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"sparqlog/internal/sparql"
)

func parse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// TestPassCodes lints a table of queries and checks the exact set of
// distinct diagnostic codes each produces.
func TestPassCodes(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		codes string // comma-joined sorted distinct codes, "" for clean
	}{
		{
			"clean",
			`SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o > 3) }`,
			"",
		},
		{
			"filter-false",
			`SELECT * WHERE { ?s ?p ?o . FILTER(false) }`,
			"SQL001",
		},
		{
			"contradictory-equalities",
			`SELECT * WHERE { ?s <urn:p> ?o . FILTER(?o = <urn:a> && ?o = <urn:b>) }`,
			"SQL001",
		},
		{
			"prefixed-contradiction",
			`PREFIX ex: <http://example.org/>
			 SELECT * WHERE { ?s <urn:p> ?o . FILTER(?o = ex:a && ?o = ex:b) }`,
			"SQL001",
		},
		{
			"self-comparison",
			`SELECT * WHERE { ?s <urn:p> ?o . FILTER(?o != ?o) }`,
			"SQL001",
		},
		{
			// Numeric interval is empty but the lexicographic regime
			// admits "1a": 10 < "1a" < "2" as strings. Must NOT flag.
			"numeric-interval-lex-escape",
			`SELECT * WHERE { ?s <urn:p> ?o . FILTER(?o > 10 && ?o < 2) }`,
			"",
		},
		{
			// Both regimes empty: numerically 5 < x < 3 is empty and
			// lexicographically "5" < x < "3" is empty too.
			"interval-empty-both-regimes",
			`SELECT * WHERE { ?s <urn:p> ?o . FILTER(?o > 5 && ?o < 3) }`,
			"SQL001",
		},
		{
			"cartesian-product",
			`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:p> ?d }`,
			"SQL002",
		},
		{
			// A filter mentioning both sides connects the components.
			"filter-connects",
			`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:p> ?d . FILTER(?b = ?d) }`,
			"SQL007",
		},
		{
			// A dead filter variable always errors, so the filter drops
			// every row: both the unbound-var and unsat passes fire.
			"unbound-filter-var",
			`SELECT * WHERE { ?s ?p ?o . FILTER(?x > 1) }`,
			"SQL001,SQL003",
		},
		{
			"dead-projection",
			`SELECT ?s ?missing WHERE { ?s ?p ?o }`,
			"SQL004",
		},
		{
			"non-well-designed-optional",
			`SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?s <urn:q> ?x } OPTIONAL { ?y <urn:r> ?x } }`,
			"SQL005",
		},
		{
			"well-designed-optional",
			`SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?s <urn:q> ?x } }`,
			"",
		},
		{
			"duplicate-union",
			`SELECT * WHERE { { ?s <urn:p> ?o } UNION { ?s <urn:p> ?o } }`,
			"SQL006",
		},
		{
			"distinct-union",
			`SELECT * WHERE { { ?s <urn:p> ?o } UNION { ?s <urn:q> ?o } }`,
			"",
		},
		{
			"collapsible-equality",
			`SELECT ?a WHERE { ?a <urn:p> ?b . ?a <urn:q> ?c . FILTER(?b = ?c) }`,
			"SQL007",
		},
		{
			"unbound-order-key",
			`SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY ?x ?o`,
			"SQL008",
		},
		{
			"unbound-order-key-in-expr",
			`SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY DESC(?o + ?nope)`,
			"SQL008",
		},
		{
			"order-key-bound",
			`SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY DESC(?o) ?s`,
			"",
		},
		{
			"order-key-select-alias",
			`SELECT (COUNT(*) AS ?c) WHERE { ?s <urn:p> ?o } ORDER BY DESC(?c)`,
			"",
		},
		{
			"order-key-group-as-alias",
			`SELECT (COUNT(*) AS ?c) WHERE { ?s <urn:p> ?o } GROUP BY (?o AS ?k) ORDER BY ?k`,
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(parse(t, tc.src))
			got := strings.Join(r.Codes(), ",")
			if got != tc.codes {
				t.Fatalf("codes = %q, want %q\ndiagnostics: %v", got, tc.codes, r.Diagnostics)
			}
		})
	}
}

// TestSubqueryScoping checks that passes use per-scope variable sets:
// a filter over a subquery-internal variable is fine inside the
// subquery, and wrong outside it.
func TestSubqueryScoping(t *testing.T) {
	// ?o is bindable inside the subquery scope; no diagnostics.
	inner := `SELECT ?s WHERE { { SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o > 5) } } }`
	if r := Run(parse(t, inner)); len(r.Diagnostics) != 0 {
		t.Fatalf("inner-scope filter flagged: %v", r.Diagnostics)
	}
	// ?o is NOT projected out of the subquery, so the outer filter sees
	// a never-bound variable.
	outer := `SELECT ?s WHERE { { SELECT ?s WHERE { ?s <urn:p> ?o } } FILTER(?o > 5) }`
	r := Run(parse(t, outer))
	got := strings.Join(r.Codes(), ",")
	if got != "SQL001,SQL003" {
		t.Fatalf("outer-scope filter codes = %q, want SQL001,SQL003: %v", got, r.Diagnostics)
	}
}

// TestUnboundOrderKeyScoping checks SQL008 honors subquery scopes: a
// key over a subquery-internal variable is fine inside the subquery
// and a no-op outside it (the variable isn't projected out).
func TestUnboundOrderKeyScoping(t *testing.T) {
	inner := `SELECT ?s WHERE { { SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY ?o } }`
	if r := Run(parse(t, inner)); len(r.Diagnostics) != 0 {
		t.Fatalf("inner-scope order key flagged: %v", r.Diagnostics)
	}
	outer := `SELECT ?s WHERE { { SELECT ?s WHERE { ?s <urn:p> ?o } } } ORDER BY ?o`
	r := Run(parse(t, outer))
	if got := strings.Join(r.Codes(), ","); got != "SQL008" {
		t.Fatalf("outer-scope order key codes = %q, want SQL008: %v", got, r.Diagnostics)
	}
	if !strings.Contains(r.Diagnostics[0].Message, "?o") {
		t.Fatalf("diagnostic doesn't name the variable: %v", r.Diagnostics[0])
	}
}

// TestEmpty checks the static-emptiness decision across the pattern
// algebra.
func TestEmpty(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		empty bool
	}{
		{"plain-triples", `SELECT * WHERE { ?s ?p ?o }`, false},
		{"filter-false", `SELECT * WHERE { ?s ?p ?o . FILTER(false) }`, true},
		{"filter-true", `SELECT * WHERE { ?s ?p ?o . FILTER(true) }`, false},
		{"self-neq", `SELECT * WHERE { ?s ?p ?o . FILTER(?o != ?o) }`, true},
		{"optional-never-propagates",
			`SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <urn:q> ?x . FILTER(false) } }`, false},
		{"minus-never-propagates",
			`SELECT * WHERE { ?s ?p ?o MINUS { ?s <urn:q> ?x . FILTER(false) } }`, false},
		{"union-one-live",
			`SELECT * WHERE { { ?s ?p ?o . FILTER(false) } UNION { ?s ?p ?o } }`, false},
		{"union-both-dead",
			`SELECT * WHERE { { ?s ?p ?o . FILTER(false) } UNION { ?s ?p ?o . FILTER(?o != ?o) } }`, true},
		{"graph-inner",
			`SELECT * WHERE { GRAPH ?g { ?s ?p ?o . FILTER(false) } }`, true},
		{"subquery-limit-zero",
			`SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 0 } }`, true},
		{"subquery-empty-body",
			`SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o . FILTER(false) } } }`, true},
		{"subquery-aggregation-yields-row",
			`SELECT * WHERE { { SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o . FILTER(false) } } }`, false},
		{"subquery-own-scope",
			// ?o is dead at the top level but alive inside the subquery:
			// the inner filter must be judged in its own scope.
			`SELECT ?s WHERE { { SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o > 5) } } }`, false},
		{"numeric-lex-escape", `SELECT * WHERE { ?s ?p ?o . FILTER(?o > 10 && ?o < 2) }`, false},
		{"interval-empty", `SELECT * WHERE { ?s ?p ?o . FILTER(?o > 5 && ?o < 3) }`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Empty(parse(t, tc.src)); got != tc.empty {
				t.Fatalf("Empty = %v, want %v", got, tc.empty)
			}
		})
	}
}

// TestCollapseEqualitiesRefusals pins what SQL007 advises: the
// substitution only where the dropped variable lives entirely in the
// group's own triples, and the plain "joins after enumeration" note
// everywhere else.
func TestCollapseEqualitiesRefusals(t *testing.T) {
	advice := func(src string) string {
		t.Helper()
		for _, d := range Run(parse(t, src)).Diagnostics {
			if d.Code == "SQL007" {
				return d.Message
			}
		}
		t.Fatalf("no SQL007 diagnostic on %q", src)
		return ""
	}
	const substitute = "substitute ?c := ?b"
	if msg := advice(`SELECT ?a ?c WHERE { ?a <urn:p> ?b . ?a <urn:q> ?c . FILTER(?b = ?c) }`); !strings.Contains(msg, substitute) {
		t.Fatalf("collapsible equality not advised as such: %s", msg)
	}
	for _, src := range []string{
		// Both sides occur in an OPTIONAL too: dropping either would
		// change what the optional observes.
		`SELECT * WHERE { ?a <urn:p> ?b . ?a <urn:q> ?c . FILTER(?b = ?c) OPTIONAL { ?b <urn:r> ?c } }`,
		// ?c never occurs in the group's triples: nothing to substitute.
		`SELECT * WHERE { ?a <urn:p> ?b . FILTER(?b = ?c) }`,
		// Both sides are AS targets: the projection would rebind them.
		`SELECT (?a AS ?c) (?a AS ?b) WHERE { ?a <urn:p> ?b . ?a <urn:q> ?c . FILTER(?b = ?c) }`,
	} {
		if msg := advice(src); strings.Contains(msg, "substitute") {
			t.Fatalf("substitution advised where it is unsafe: %q: %s", src, msg)
		}
	}
}

// TestDiagnosticString pins the one-line rendering and result helpers.
func TestDiagnosticString(t *testing.T) {
	r := Run(parse(t, `SELECT * WHERE { ?s ?p ?o . FILTER(false) }`))
	if len(r.Diagnostics) == 0 {
		t.Fatal("expected a diagnostic")
	}
	d := r.Diagnostics[0]
	s := d.String()
	if !strings.HasPrefix(s, "SQL001 error where") {
		t.Fatalf("diagnostic string = %q", s)
	}
	if !r.Empty {
		t.Fatal("result should be statically empty")
	}
	if max, ok := r.Max(); !ok || max != Error {
		t.Fatalf("Max = %v,%v", max, ok)
	}
}

// TestPassesRegistry checks registration: eight passes, sorted, with
// docs.
func TestPassesRegistry(t *testing.T) {
	ps := Passes()
	if len(ps) != 8 {
		t.Fatalf("registered %d passes, want 8", len(ps))
	}
	for i, p := range ps {
		if p.Code == "" || p.Name == "" || p.Doc == "" || p.Run == nil {
			t.Fatalf("pass %d incomplete: %+v", i, p)
		}
		if i > 0 && ps[i-1].Code >= p.Code {
			t.Fatalf("passes not sorted by code: %s >= %s", ps[i-1].Code, p.Code)
		}
	}
}

// TestScopesBuiltOncePerRun counts the call sites of scopes in the
// package's non-test source: there is one, in Run, so a Run builds the
// scopes once however many passes range over them (each of the eight
// used to rebuild them). The count is taken from the source so that
// production code carries no counter.
func TestScopesBuiltOncePerRun(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "scopes" {
							callers = append(callers, fd.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	if len(callers) != 1 || callers[0] != "Run" {
		t.Fatalf("scopes is called from %v, want one call, from Run", callers)
	}
}
