package sparql

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseQueryTypes(t *testing.T) {
	tests := []struct {
		src  string
		want QueryType
	}{
		{"SELECT * WHERE { ?s ?p ?o }", SelectQuery},
		{"select ?s where { ?s ?p ?o }", SelectQuery},
		{"ASK { ?s ?p ?o }", AskQuery},
		{"ASK WHERE { ?s ?p ?o }", AskQuery},
		{"CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }", ConstructQuery},
		{"CONSTRUCT WHERE { ?s ?p ?o }", ConstructQuery},
		{"DESCRIBE <http://example.org/x>", DescribeQuery},
		{"DESCRIBE ?x WHERE { ?x a <http://example.org/C> }", DescribeQuery},
		{"DESCRIBE *  WHERE { ?x ?p ?o }", DescribeQuery},
	}
	for _, tc := range tests {
		q := mustParse(t, tc.src)
		if q.Type != tc.want {
			t.Errorf("Parse(%q).Type = %v, want %v", tc.src, q.Type, tc.want)
		}
	}
}

func TestParseBodylessDescribe(t *testing.T) {
	q := mustParse(t, "DESCRIBE <http://dbpedia.org/resource/Paris>")
	if q.HasBody() {
		t.Error("bodyless DESCRIBE should have no body")
	}
	if len(q.Triples()) != 0 {
		t.Error("bodyless DESCRIBE should have no triples")
	}
}

func TestParsePaperWikidataQuery(t *testing.T) {
	// The "Locations of archaeological sites" query from Section 3.
	src := `
	PREFIX wdt: <http://www.wikidata.org/prop/direct/>
	PREFIX wd: <http://www.wikidata.org/entity/>
	PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
	SELECT ?label ?coord ?subj
	WHERE
	{ ?subj wdt:P31/wdt:P279* wd:Q839954 .
	  ?subj wdt:P625 ?coord .
	  ?subj rdfs:label ?label filter(lang(?label)="en")
	}`
	q := mustParse(t, src)
	if q.Type != SelectQuery {
		t.Fatalf("type = %v", q.Type)
	}
	if len(q.Select) != 3 {
		t.Fatalf("projection size = %d, want 3", len(q.Select))
	}
	if got := len(q.Triples()); got != 2 {
		t.Errorf("triple patterns = %d, want 2", got)
	}
	paths := q.PathPatterns()
	if len(paths) != 1 {
		t.Fatalf("path patterns = %d, want 1", len(paths))
	}
	seq, ok := paths[0].Path.(*PathSeq)
	if !ok || len(seq.Parts) != 2 {
		t.Fatalf("path = %s, want sequence of 2", PathString(paths[0].Path))
	}
	if _, ok := seq.Parts[1].(*PathMod); !ok {
		t.Errorf("second part should be starred, got %s", PathString(seq.Parts[1]))
	}
	grp := q.Where.(*Group)
	var filters int
	for _, el := range grp.Elems {
		if _, ok := el.(*Filter); ok {
			filters++
		}
	}
	if filters != 1 {
		t.Errorf("filters in group = %d, want 1", filters)
	}
}

func TestParsePaperExample51(t *testing.T) {
	// The two ASK queries from Example 5.1.
	q1 := mustParse(t, "ASK WHERE {?x1 <a> ?x2 . ?x2 <b> ?x3 . ?x3 <c> ?x4}")
	if got := len(q1.Triples()); got != 3 {
		t.Fatalf("q1 triples = %d, want 3", got)
	}
	q2 := mustParse(t, "ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}")
	trs := q2.Triples()
	if len(trs) != 3 {
		t.Fatalf("q2 triples = %d, want 3", len(trs))
	}
	if !trs[0].P.IsVar() || !trs[2].P.IsVar() {
		t.Error("q2 should have variable predicates in triples 1 and 3")
	}
}

func TestParseSolutionModifiers(t *testing.T) {
	src := `SELECT DISTINCT ?x (COUNT(?y) AS ?c) WHERE { ?x <p> ?y }
		GROUP BY ?x HAVING (COUNT(?y) > 2) ORDER BY DESC(?c) ?x LIMIT 10 OFFSET 5`
	q := mustParse(t, src)
	if !q.Distinct {
		t.Error("want Distinct")
	}
	if len(q.Mods.GroupBy) != 1 {
		t.Errorf("GroupBy = %d, want 1", len(q.Mods.GroupBy))
	}
	if len(q.Mods.Having) != 1 {
		t.Errorf("Having = %d, want 1", len(q.Mods.Having))
	}
	if len(q.Mods.OrderBy) != 2 {
		t.Errorf("OrderBy = %d, want 2", len(q.Mods.OrderBy))
	}
	if !q.Mods.OrderBy[0].Desc {
		t.Error("first order key should be DESC")
	}
	if q.Mods.Limit != 10 || q.Mods.Offset != 5 {
		t.Errorf("limit/offset = %d/%d, want 10/5", q.Mods.Limit, q.Mods.Offset)
	}
	if len(q.Select) != 2 || q.Select[1].Expr == nil {
		t.Error("want aliased aggregate in projection")
	}
}

func TestParseLimitOffsetEitherOrder(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { ?s ?p ?o } OFFSET 20 LIMIT 10")
	if q.Mods.Limit != 10 || q.Mods.Offset != 20 {
		t.Errorf("limit/offset = %d/%d", q.Mods.Limit, q.Mods.Offset)
	}
}

func TestParseOptionalUnionGraphMinus(t *testing.T) {
	src := `SELECT ?a WHERE {
		?a <name> ?n .
		OPTIONAL { ?a <email> ?e }
		{ ?a <type> <X> } UNION { ?a <type> <Y> }
		GRAPH ?g { ?a <in> ?c }
		MINUS { ?a <banned> true }
		SERVICE SILENT <http://other/sparql> { ?a <ext> ?v }
	}`
	q := mustParse(t, src)
	grp := q.Where.(*Group)
	var opt, uni, gra, min, svc int
	for _, el := range grp.Elems {
		switch el.(type) {
		case *Optional:
			opt++
		case *Union:
			uni++
		case *GraphGraph:
			gra++
		case *MinusGraph:
			min++
		case *ServiceGraph:
			svc++
		}
	}
	if opt != 1 || uni != 1 || gra != 1 || min != 1 || svc != 1 {
		t.Errorf("opt=%d uni=%d graph=%d minus=%d service=%d, want all 1", opt, uni, gra, min, svc)
	}
}

func TestParseNestedUnion(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { { ?s <a> ?o } UNION { ?s <b> ?o } UNION { ?s <c> ?o } }")
	grp := q.Where.(*Group)
	u, ok := grp.Elems[0].(*Union)
	if !ok {
		t.Fatal("expected union")
	}
	if _, ok := u.Left.(*Union); !ok {
		t.Error("3-way union should be left-nested")
	}
}

func TestParsePropertyListSyntax(t *testing.T) {
	// Semicolon and comma abbreviations.
	q := mustParse(t, "SELECT * WHERE { ?s <p> ?a , ?b ; <q> ?c . }")
	if got := len(q.Triples()); got != 3 {
		t.Fatalf("triples = %d, want 3", got)
	}
	for _, tr := range q.Triples() {
		if tr.S.Value != "s" {
			t.Errorf("subject = %v, want s", tr.S)
		}
	}
}

func TestParseBlankNodePropertyList(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { ?x <knows> [ <name> \"Alice\" ; <age> 30 ] }")
	if got := len(q.Triples()); got != 3 {
		t.Fatalf("triples = %d, want 3", got)
	}
	q2 := mustParse(t, "SELECT * WHERE { [ <name> ?n ] <knows> ?y }")
	if got := len(q2.Triples()); got != 2 {
		t.Fatalf("triples = %d, want 2", got)
	}
}

func TestParseCollection(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { ?x <list> ( 1 2 3 ) }")
	// 1 main triple + first/rest chain: 3 firsts + 3 rests = 7.
	if got := len(q.Triples()); got != 7 {
		t.Fatalf("triples = %d, want 7", got)
	}
}

func TestParseAnonBlank(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { ?x <p> [] }")
	trs := q.Triples()
	if len(trs) != 1 || trs[0].O.Kind != TermBlank {
		t.Fatalf("want one triple with blank object, got %v", trs)
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
		?a <p> "plain" .
		?b <p> "lang"@en-GB .
		?c <p> "typed"^^<http://www.w3.org/2001/XMLSchema#date> .
		?d <p> 'single' .
		?e <p> """long
multiline""" .
		?f <p> 3.14 .
		?g <p> -7 .
		?h <p> 1e6 .
		?i <p> true .
	}`)
	trs := q.Triples()
	if len(trs) != 9 {
		t.Fatalf("triples = %d, want 9", len(trs))
	}
	if trs[1].O.Lang != "en-GB" {
		t.Errorf("lang = %q", trs[1].O.Lang)
	}
	if !strings.HasSuffix(trs[2].O.Datatype, "date") {
		t.Errorf("datatype = %q", trs[2].O.Datatype)
	}
	if trs[4].O.Value != "long\nmultiline" {
		t.Errorf("long string = %q", trs[4].O.Value)
	}
	if trs[6].O.Value != "-7" {
		t.Errorf("negative int = %q", trs[6].O.Value)
	}
	if trs[8].O.Datatype != "http://www.w3.org/2001/XMLSchema#boolean" {
		t.Errorf("boolean datatype = %q", trs[8].O.Datatype)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s <p> "a\"b\\c\ndé" }`)
	got := q.Triples()[0].O.Value
	want := "a\"b\\c\ndé"
	if got != want {
		t.Errorf("escaped string = %q, want %q", got, want)
	}
}

func TestParseFilterExpressions(t *testing.T) {
	tests := []string{
		`SELECT * WHERE { ?s <p> ?o FILTER (?o > 5 && ?o < 10) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER (?o = "x" || !BOUND(?o)) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER regex(?o, "^ab", "i") }`,
		`SELECT * WHERE { ?s <p> ?o FILTER (lang(?o) = "en") }`,
		`SELECT * WHERE { ?s <p> ?o FILTER (?o IN (1, 2, 3)) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER (?o NOT IN (<a>, <b>)) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER EXISTS { ?s <q> ?x } }`,
		`SELECT * WHERE { ?s <p> ?o FILTER NOT EXISTS { ?s <q> ?x } }`,
		`SELECT * WHERE { ?s <p> ?o FILTER isIRI(?o) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER (str(?s) != str(?o)) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER (sameTerm(?s, ?o)) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER ((?o * 2) + 1 >= -3) }`,
		`SELECT * WHERE { ?s <p> ?o FILTER <http://ex/fn>(?o) }`,
	}
	for _, src := range tests {
		mustParse(t, src)
	}
}

func TestParseExistsInsideFilterCounted(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s <p> ?o FILTER NOT EXISTS { ?s <q> ?x . ?x <r> ?y } }`)
	// Triples() descends into EXISTS patterns.
	if got := len(q.Triples()); got != 3 {
		t.Errorf("triples incl. EXISTS = %d, want 3", got)
	}
}

func TestParseBindAndValues(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
		?s <p> ?o .
		BIND (?o * 2 AS ?double)
		VALUES ?s { <a> <b> }
		VALUES (?x ?y) { (1 2) (UNDEF "z") }
	}`)
	grp := q.Where.(*Group)
	var binds, values int
	for _, el := range grp.Elems {
		switch v := el.(type) {
		case *Bind:
			binds++
		case *InlineData:
			values++
			if len(v.Vars) == 2 {
				if !v.Undef[1][0] {
					t.Error("expected UNDEF in second row")
				}
			}
		}
	}
	if binds != 1 || values != 2 {
		t.Errorf("binds=%d values=%d", binds, values)
	}
}

func TestParseTrailingValues(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o } VALUES ?s { <a> }`)
	if q.TrailingValues == nil {
		t.Fatal("want trailing VALUES")
	}
}

func TestParseSubquery(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		?s <p> ?o .
		{ SELECT ?o WHERE { ?o <q> ?z } LIMIT 5 }
	}`)
	var subs int
	Walk(q.Where, func(p Pattern) bool {
		if _, ok := p.(*SubSelect); ok {
			subs++
		}
		return true
	})
	if subs != 1 {
		t.Fatalf("subqueries = %d, want 1", subs)
	}
}

func TestParsePropertyPaths(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{`ASK { ?x <a>/<b> ?y }`, "<a>/<b>"},
		{`ASK { ?x <a>|<b> ?y }`, "<a>|<b>"},
		{`ASK { ?x <a>* ?y }`, "<a>*"},
		{`ASK { ?x <a>+ ?y }`, "<a>+"},
		{`ASK { ?x <a>? ?y }`, "<a>?"},
		{`ASK { ?x ^<a> ?y }`, "^<a>"},
		{`ASK { ?x !<a> ?y }`, "!<a>"},
		{`ASK { ?x !(<a>|<b>) ?y }`, "!(<a>|<b>)"},
		{`ASK { ?x (<a>/<b>)* ?y }`, "(<a>/<b>)*"},
		{`ASK { ?x (<a>|<b>)/<c> ?y }`, "(<a>|<b>)/<c>"},
		{`ASK { ?x <a>/^<b> ?y }`, "<a>/^<b>"},
		{`ASK { ?x (^<a>)/<b>? ?y }`, "^<a>/<b>?"},
		{`ASK { ?x !(^<a>|<b>) ?y }`, "!(^<a>|<b>)"},
	}
	for _, tc := range tests {
		q := mustParse(t, tc.src)
		pps := q.PathPatterns()
		if len(pps) != 1 {
			t.Fatalf("%s: path patterns = %d, want 1", tc.src, len(pps))
		}
		if got := PathString(pps[0].Path); got != tc.want {
			t.Errorf("%s: path = %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestParsePlainIRIPredicateIsTriple(t *testing.T) {
	q := mustParse(t, `ASK { ?x <a> ?y }`)
	if len(q.PathPatterns()) != 0 {
		t.Error("plain IRI predicate must fold to a triple pattern")
	}
	if len(q.Triples()) != 1 {
		t.Error("want one triple")
	}
}

func TestParseAKeyword(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?x a <http://example.org/C> }`)
	tr := q.Triples()[0]
	if tr.P.Value != RDFType || tr.P.Kind != TermIRI {
		t.Errorf("predicate = %v, want rdf:type", tr.P)
	}
}

func TestParsePrefixedNames(t *testing.T) {
	q := mustParse(t, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		SELECT * WHERE { ?x foaf:name ?n . ?x foaf:mbox ?m }`)
	if len(q.Prologue.Prefixes) != 1 || q.Prologue.Prefixes[0].Name != "foaf" {
		t.Fatalf("prefixes = %v", q.Prologue.Prefixes)
	}
	tr := q.Triples()[0]
	if tr.P.Value != "foaf:name" || !tr.P.PrefixedForm {
		t.Errorf("predicate = %+v", tr.P)
	}
}

func TestParseDatasetClauses(t *testing.T) {
	q := mustParse(t, `SELECT * FROM <http://g1> FROM NAMED <http://g2> WHERE { ?s ?p ?o }`)
	if len(q.Datasets) != 2 || q.Datasets[0].Named || !q.Datasets[1].Named {
		t.Fatalf("datasets = %v", q.Datasets)
	}
}

func TestParseAggregates(t *testing.T) {
	srcs := []string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT (SUM(?v) AS ?n) WHERE { ?s <p> ?v }`,
		`SELECT (AVG(?v) AS ?a) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) WHERE { ?s <p> ?v }`,
		`SELECT (SAMPLE(?v) AS ?x) WHERE { ?s <p> ?v } GROUP BY ?s`,
		`SELECT (GROUP_CONCAT(?v ; SEPARATOR = ", ") AS ?all) WHERE { ?s <p> ?v } GROUP BY ?s`,
	}
	for _, src := range srcs {
		mustParse(t, src)
	}
	q := mustParse(t, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	agg, ok := q.Select[0].Expr.(*AggregateExpr)
	if !ok || !agg.Star || agg.Name != "COUNT" {
		t.Fatalf("want COUNT(*), got %#v", q.Select[0].Expr)
	}
}

func TestParseComments(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { # comment here\n ?s ?p ?o # trailing\n }")
	if len(q.Triples()) != 1 {
		t.Error("comment handling broke triple parse")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * WHERE",
		"SELECT * WHERE {",
		"SELECT * WHERE { ?s ?p }",
		"SELECT * WHERE { ?s ?p ?o ",
		"SELECT WHERE { ?s ?p ?o }",
		"FOO * WHERE { ?s ?p ?o }",
		"SELECT * WHERE { ?s ?p ?o }}",
		"ASK { ?s <p> \"unterminated }",
		"SELECT * WHERE { ?s <p> ?o } LIMIT x",
		"SELECT (COUNT(*) AS) WHERE { ?s ?p ?o }",
		"SELECT * WHERE { FILTER }",
		// The malformed WikiData "Public Art in Paris" situation: missing
		// closing braces.
		"SELECT ?art WHERE { ?art <location> ?p . { SELECT ?p WHERE { ?p <in> <Paris> }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseVarDollarForm(t *testing.T) {
	q := mustParse(t, "SELECT $x WHERE { $x ?p ?o }")
	if q.Select[0].Var.Value != "x" {
		t.Errorf("$x variable = %v", q.Select[0].Var)
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	mustParse(t, "sElEcT DiStInCt ?x wHeRe { ?x ?p ?o } oRdEr bY ?x lImIt 3")
}

// TestParseKeywordsAreASCII: only ASCII letters fold in a keyword, so
// a non-ASCII rune whose case folds onto a keyword letter (the Kelvin
// sign U+212A, the long s U+017F) spells no keyword.
func TestParseKeywordsAreASCII(t *testing.T) {
	for _, src := range []string{
		"AS\u212A { ?s ?p ?o }",
		"\u017FELECT * { ?s ?p ?o }",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want a syntax error", src)
		}
	}
}

// TestFunctionNamesFoldASCII: function and aggregate names fold only
// ASCII letters, as keywords do. A long s does not spell SUM, a dotless
// i does not spell ISBLANK (nor, upper case already, does a Kelvin
// sign), and a lower-case sum is the SUM aggregate.
func TestFunctionNamesFoldASCII(t *testing.T) {
	projected := func(src string) Expr {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		return q.Select[0].Expr
	}
	if a, ok := projected("SELECT (sum(?x) AS ?y) WHERE { ?x ?p ?o } GROUP BY ?p").(*AggregateExpr); !ok || a.Name != "SUM" {
		t.Errorf("sum(?x) is not the SUM aggregate")
	}
	if f, ok := projected("SELECT (\u017FUM(?x) AS ?y) WHERE { ?x ?p ?o } GROUP BY ?p").(*FuncCall); !ok || f.Name != "\u017FUM" {
		t.Errorf("\u017FUM(?x) is not a call of \u017FUM")
	}
	for name, want := range map[string]string{"\u0131sBLANK": "\u0131SBLANK", "isBLAN\u212A": "ISBLAN\u212A"} {
		if f, ok := projected("SELECT (" + name + "(?x) AS ?y) WHERE { ?x ?p ?o }").(*FuncCall); !ok || f.Name != want {
			t.Errorf("%s(?x) is not a call of %s", name, want)
		}
	}
	if got := upperASCII("isBLANK"); got != "ISBLANK" {
		t.Errorf("upperASCII(isBLANK) = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { upperASCII("ISBLANK") }); n != 0 {
		t.Errorf("upperASCII of an upper-case name allocates %v times", n)
	}
}

// TestMayParse: MayParse admits every text that parses, past white
// space, comments and any ASCII letter case, and turns away texts whose
// first token no query starts with.
func TestMayParse(t *testing.T) {
	for _, src := range []string{
		"SELECT * { ?s ?p ?o }",
		"ask {}",
		"  \t\n# a comment\n\f\vPrefix ex: <http://ex/> SELECT * { ?s ex:p ?o }",
		"bAsE <http://ex/> DESCRIBE <x>",
		"construct { ?s ?p ?o } where { ?s ?p ?o }",
	} {
		if _, err := Parse(src); err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !MayParse(src) {
			t.Errorf("MayParse(%q) = false for a text that parses", src)
		}
	}
	for _, src := range []string{
		"",
		"# only a comment",
		"GET /resource/Paris HTTP/1.1",
		`127.0.0.1 - - [12/Jun/2015:10:00:00 +0000] "GET /sparql?query=SELECT HTTP/1.1"`,
		`{"event":"ping"}`,
		"AS\u212A { ?s ?p ?o }",
		"\u017FELECT * { ?s ?p ?o }",
		"SELEC * {}",
		"\u00a0SELECT * {}", // no-break space is not SPARQL white space
	} {
		if MayParse(src) {
			t.Errorf("MayParse(%q) = true", src)
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseGraphWithVariable(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { GRAPH ?g { ?s ?p ?o } }")
	grp := q.Where.(*Group)
	g, ok := grp.Elems[0].(*GraphGraph)
	if !ok || !g.Name.IsVar() {
		t.Fatalf("want GRAPH ?g, got %#v", grp.Elems[0])
	}
}

// names renders a Scope set as its sorted names.
func names(s *Scope, set VarSet) string {
	return strings.Join(slices.Sorted(slices.Values(s.NamesOf(set))), " ")
}

func TestVarsCollection(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
		?s <p> ?o .
		OPTIONAL { ?o <q> ?x }
		FILTER (?y > 1)
		BIND (str(?s) AS ?z)
	}`)
	s := ScopeOf(q)
	if got := names(s, s.Mentioned); got != "o s x y z" {
		t.Errorf("mentioned = %q", got)
	}
	if got := s.Names; !slices.Equal(got, []string{"s", "o", "x", "y", "z"}) {
		t.Errorf("numbering = %q, want the walk's pre-order", got)
	}
}

func TestProjectedVars(t *testing.T) {
	s := ScopeOf(mustParse(t, "SELECT ?a ?b WHERE { ?a <p> ?b . ?b <q> ?c }"))
	if got := names(s, s.Projected); got != "a b" {
		t.Errorf("projected = %q", got)
	}
	s = ScopeOf(mustParse(t, "SELECT * WHERE { ?a <p> ?b }"))
	if got := names(s, s.Projected); got != "a b" {
		t.Errorf("star projected = %q", got)
	}
}

// TestInScopeVars pins the variable-scope table of SPARQL 1.1 §18.2.1
// and SELECT * / DESCRIBE *'s projection of it: a FILTER (EXISTS
// included), a MINUS block and a subquery's unprojected positions bind
// nothing in the enclosing scope, a blank node is not a variable, and a
// variable only a BIND introduces is in scope but reported apart. The
// bindable column is what a solution can carry (BIND targets, trailing
// VALUES and GROUP BY aliases too); the minus column is what only a
// MINUS body binds, which is not bindable.
func TestInScopeVars(t *testing.T) {
	cases := []struct {
		src             string
		scope, bindOnly string
		projected       string
		bindable, minus string
	}{
		{"SELECT * WHERE { ?a <p> ?b . ?b <q> _:c }", "a b", "", "a b", "a b", ""},
		{"SELECT * WHERE { ?a <p> ?b FILTER(?f > 1) FILTER EXISTS { ?a <q> ?e } }", "a b", "", "a b", "a b", ""},
		{"SELECT * WHERE { ?a <p> ?b MINUS { ?a <q> ?m } }", "a b", "", "a b", "a b", "m"},
		{"SELECT * WHERE { ?a <p> ?b MINUS { ?a <q> ?m MINUS { ?m <r> ?n } FILTER EXISTS { ?m <s> ?e } } }", "a b", "", "a b", "a b", "m n"},
		{"SELECT * WHERE { ?a <p> ?b MINUS { ?a <q> ?b } }", "a b", "", "a b", "a b", ""},
		{"SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?o } }", "a b o", "", "a b o", "a b o", ""},
		{"SELECT * WHERE { { ?a <p> ?l } UNION { ?a <q> ?r } }", "a l r", "", "a l r", "a l r", ""},
		{"SELECT * WHERE { GRAPH ?g { ?a <p> ?b } }", "a b g", "", "a b g", "a b g", ""},
		{"SELECT * WHERE { SERVICE ?g { ?a <p> ?b } }", "a b g", "", "a b g", "a b", ""},
		{"SELECT * WHERE { ?a <p> ?o BIND(STR(?o) AS ?s) BIND(1 AS ?a) }", "a o", "s", "a o s", "a o s", ""},
		{"SELECT * WHERE { ?a <p> ?b VALUES ?v { 1 } }", "a b v", "", "a b v", "a b v", ""},
		{"SELECT * WHERE { { SELECT ?a WHERE { ?a <p> ?hidden } } }", "a", "", "a", "a", ""},
		{"SELECT * WHERE { { SELECT * WHERE { ?a <p> ?b FILTER(?f) } } }", "a b", "", "a b", "a b", ""},
		{"SELECT * WHERE { ?a <p> ?b } VALUES ?t { 1 }", "a b", "", "a b t", "a b t", ""},
		{"SELECT ?k WHERE { ?a <p> ?b } GROUP BY (?a AS ?k)", "a b", "", "k", "a b k", ""},
		{"DESCRIBE * WHERE { ?a <p> ?b FILTER(?f) }", "a b", "", "a b", "a b", ""},
		{"DESCRIBE ?a WHERE { ?a <p> ?b }", "a b", "", "a", "a b", ""},
	}
	for _, c := range cases {
		s := ScopeOf(mustParse(t, c.src))
		for _, col := range []struct {
			what string
			set  VarSet
			want string
		}{
			{"in scope", s.InScope, c.scope},
			{"BIND-only", s.BindOnly, c.bindOnly},
			{"projected", s.Projected, c.projected},
			{"bindable", s.Bindable, c.bindable},
			{"MINUS-only", s.MinusOnly, c.minus},
		} {
			if got := names(s, col.set); got != col.want {
				t.Errorf("%s: %s %q, want %q", c.src, col.what, got, col.want)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"SELECT DISTINCT ?s WHERE { ?s <p> ?o . ?o <q> ?z } LIMIT 10 OFFSET 2",
		"ASK { ?x <a>/<b>* ?y }",
		"CONSTRUCT { ?s <p> ?o } WHERE { ?s <q> ?o }",
		"DESCRIBE <http://example.org/thing>",
		"SELECT ?s WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } FILTER (?o > 3) }",
		"SELECT * WHERE { { ?s <a> ?o } UNION { ?s <b> ?o } }",
		"SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o } }",
		"SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p HAVING (COUNT(?s) > 1) ORDER BY DESC(?n)",
		"SELECT * WHERE { ?s <p> ?o . MINUS { ?s <bad> ?o } }",
		"SELECT * WHERE { ?s <p> ?o FILTER NOT EXISTS { ?s <q> ?o } }",
		`SELECT * WHERE { ?s <p> "lit"@en . ?s <q> "t"^^<http://www.w3.org/2001/XMLSchema#date> }`,
		"SELECT ?x WHERE { { SELECT ?x WHERE { ?x <p> ?y } LIMIT 3 } }",
		"PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:p ex:o }",
	}
	for _, src := range srcs {
		q1 := mustParse(t, src)
		text := q1.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("round-trip reparse of %q -> %q failed: %v", src, text, err)
		}
		text2 := q2.String()
		if text != text2 {
			t.Errorf("round trip not stable:\n 1: %s\n 2: %s", text, text2)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	_, err := Parse("SELECT *\nWHERE { ?s ?p }")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Pos.Line)
	}
}

func TestParseNumbersEdgeCases(t *testing.T) {
	// "1." must parse as integer 1 followed by triple terminator dot.
	q := mustParse(t, "SELECT * WHERE { ?s <p> 1. ?s <q> ?o }")
	if got := len(q.Triples()); got != 2 {
		t.Fatalf("triples = %d, want 2", got)
	}
	q2 := mustParse(t, "SELECT * WHERE { ?s <p> .5 }")
	if q2.Triples()[0].O.Value != ".5" {
		t.Errorf("decimal = %q", q2.Triples()[0].O.Value)
	}
}

func TestParseIRIVersusLessThan(t *testing.T) {
	q := mustParse(t, "SELECT * WHERE { ?s <http://ex/p> ?o FILTER (?o < 10) }")
	if len(q.Triples()) != 1 {
		t.Fatal("IRI predicate parse failed")
	}
	grp := q.Where.(*Group)
	f := grp.Elems[1].(*Filter)
	be, ok := f.Constraint.(*BinaryExpr)
	if !ok || be.Op != "<" {
		t.Fatalf("filter = %#v", f.Constraint)
	}
}

func TestParserReuse(t *testing.T) {
	p := &Parser{}
	for i := 0; i < 3; i++ {
		if _, err := p.Parse("SELECT * WHERE { ?s ?p ?o }"); err != nil {
			t.Fatal(err)
		}
	}
	// An error parse must not corrupt subsequent parses.
	if _, err := p.Parse("SELECT * WHERE {"); err == nil {
		t.Fatal("want error")
	}
	if _, err := p.Parse("ASK { ?s ?p ?o }"); err != nil {
		t.Fatal(err)
	}
}

// TestParserNumbersNames: each distinct variable and blank node label
// of a text gets one number, in the order the parser reads them, shared
// by a subquery and the query around it. A variable and a label of one
// spelling differ, and a generated blank node's label is a label like
// any other (ScopeOf names both _:gen1). Term stays 64 bytes.
func TestParserNumbersNames(t *testing.T) {
	q := mustParse(t, "SELECT ?x WHERE { ?x <p> _:x . ?y <q> [ <r> ?x ] . _:gen1 <s> ?y { SELECT ?y { ?y <t> ?z } } }")
	want := map[string]int32{"?x": 1, "_:x": 2, "?y": 3, "_:gen1": 4, "?z": 5}
	got := map[string]int32{}
	note := func(t Term) {
		switch t.Kind {
		case TermVar:
			got["?"+t.Value] = t.num
		case TermBlank:
			got["_:"+t.Value] = t.num
		default:
			if t.num != 0 {
				got[t.Value] = t.num
			}
		}
	}
	for _, it := range q.Select {
		note(it.Var)
	}
	Walk(q.Where, func(p Pattern) bool {
		if tp, ok := p.(*TriplePattern); ok {
			note(tp.S)
			note(tp.P)
			note(tp.O)
		}
		return true
	})
	if !maps.Equal(got, want) {
		t.Errorf("numbers %v, want %v", got, want)
	}
	if n := unsafe.Sizeof(Term{}); n != 64 {
		t.Errorf("a Term is %d bytes, want 64", n)
	}
}
