package eval

import (
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// people builds a small social store snapshot.
func people() *rdf.Snapshot { return peopleStore().Freeze() }

// peopleStore is the mutable builder behind people, for tests that add
// extra triples before freezing.
func peopleStore() *rdf.Store {
	st := rdf.NewStore()
	add := func(s, p, o string) { st.Add(s, p, o) }
	add("http://ex/alice", "http://ex/name", "Alice")
	add("http://ex/alice", "http://ex/age", "30")
	add("http://ex/alice", "http://ex/knows", "http://ex/bob")
	add("http://ex/bob", "http://ex/name", "Bob")
	add("http://ex/bob", "http://ex/age", "25")
	add("http://ex/bob", "http://ex/knows", "http://ex/carol")
	add("http://ex/carol", "http://ex/name", "Carol")
	add("http://ex/carol", "http://ex/age", "35")
	add("http://ex/alice", "http://ex/worksAt", "http://ex/acme")
	add("http://ex/bob", "http://ex/worksAt", "http://ex/acme")
	return st
}

func run(t *testing.T, st *rdf.Snapshot, src string) *Result {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Query(st, q)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

func TestSelectBasic(t *testing.T) {
	res := run(t, people(), `SELECT ?n WHERE { ?p <http://ex/name> ?n }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestJoin(t *testing.T) {
	res := run(t, people(), `SELECT ?n ?m WHERE {
		?a <http://ex/knows> ?b .
		?a <http://ex/name> ?n .
		?b <http://ex/name> ?m
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (alice-bob, bob-carol)", len(res.Rows))
	}
}

func TestPrefixExpansion(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ex:alice ex:name ?n }`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// A bracketed IRI names itself even when its text looks like a
// prefixed name of a declared prefix: <foo:bar> is not foo:bar. The
// parser records which form was written, in triple predicates and path
// atoms alike, and nothing guesses it back from the text.
func TestBracketedIRIIsNotExpanded(t *testing.T) {
	st := rdf.NewStore()
	st.Add("foo:a", "foo:bar", "foo:b")
	st.Add("http://x/a", "http://x/bar", "http://x/b")
	st.Add("http://x/a", sparql.RDFType, "http://x/C")
	sn := st.Freeze()
	const prologue = "PREFIX foo: <http://x/> PREFIX http: <urn:bad:> "
	for _, tc := range []struct{ where, want string }{
		{"?s <foo:bar> ?o", "foo:a foo:b"},
		{"?s <foo:bar>+ ?o", "foo:a foo:b"},
		{"?o ^<foo:bar> ?s", "foo:a foo:b"},
		{"?s <foo:bar>|<foo:nope> ?o", "foo:a foo:b"},
		{"?s foo:bar ?o", "http://x/a http://x/b"},
		{"?s foo:bar+ ?o", "http://x/a http://x/b"},
		{"?s a+ ?o", "http://x/a http://x/C"},
	} {
		res := run(t, sn, prologue+"SELECT ?s ?o WHERE { "+tc.where+" }")
		if len(res.Rows) != 1 || res.Rows[0][0]+" "+res.Rows[0][1] != tc.want {
			t.Errorf("%s: rows = %v, want [%s]", tc.where, res.Rows, tc.want)
		}
	}
}

func TestFilterNumeric(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p ex:age ?a FILTER (?a > 28) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (alice 30, carol 35)", len(res.Rows))
	}
}

func TestFilterLogic(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p ex:age ?a FILTER (?a >= 25 && ?a < 31) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestOptional(t *testing.T) {
	b := peopleStore()
	b.Add("http://ex/dave", "http://ex/name", "Dave") // no age
	res := run(t, b.Freeze(), `PREFIX ex: <http://ex/>
		SELECT ?n ?a WHERE { ?p ex:name ?n OPTIONAL { ?p ex:age ?a } }`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	unboundSeen := false
	for _, row := range res.Rows {
		if row[0] == "Dave" && row[1] == Unbound {
			unboundSeen = true
		}
	}
	if !unboundSeen {
		t.Error("Dave should have unbound age")
	}
}

func TestUnion(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?x WHERE { { ?x ex:age "30" } UNION { ?x ex:age "25" } }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestMinus(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?p WHERE { ?p ex:name ?n MINUS { ?p ex:worksAt ex:acme } }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (carol)", len(res.Rows))
	}
}

func TestDistinctLimitOffsetOrder(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT DISTINCT ?w WHERE { ?p ex:worksAt ?w }`)
	if len(res.Rows) != 1 {
		t.Fatalf("distinct rows = %d, want 1", len(res.Rows))
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n } ORDER BY ?n LIMIT 2`)
	if len(res2.Rows) != 2 || res2.Rows[0][0] != "Alice" || res2.Rows[1][0] != "Bob" {
		t.Fatalf("ordered rows = %v", res2.Rows)
	}
	res3 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n } ORDER BY DESC(?n) LIMIT 1`)
	if res3.Rows[0][0] != "Carol" {
		t.Fatalf("desc first = %v", res3.Rows)
	}
	res4 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n } ORDER BY ?n OFFSET 2`)
	if len(res4.Rows) != 1 || res4.Rows[0][0] != "Carol" {
		t.Fatalf("offset rows = %v", res4.Rows)
	}
}

func TestAsk(t *testing.T) {
	if !run(t, people(), `PREFIX ex: <http://ex/> ASK { ex:alice ex:knows ex:bob }`).Bool {
		t.Error("alice knows bob")
	}
	if run(t, people(), `PREFIX ex: <http://ex/> ASK { ex:carol ex:knows ex:alice }`).Bool {
		t.Error("carol does not know alice")
	}
}

func TestAggregates(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT (COUNT(*) AS ?n) WHERE { ?p ex:name ?x }`)
	if res.Rows[0][0] != "3" {
		t.Fatalf("count = %v", res.Rows)
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT (AVG(?a) AS ?avg) (MAX(?a) AS ?mx) (MIN(?a) AS ?mn) (SUM(?a) AS ?s)
		WHERE { ?p ex:age ?a }`)
	row := res2.Rows[0]
	if row[0] != "30" || row[1] != "35" || row[2] != "25" || row[3] != "90" {
		t.Fatalf("aggregate row = %v", row)
	}
}

func TestAggregateOrderBy(t *testing.T) {
	b := rdf.NewStore()
	b.Add("p1", "by", "r1")
	b.Add("p2", "by", "r1")
	b.Add("p3", "by", "r1")
	b.Add("p4", "by", "r2")
	b.Add("p5", "by", "r3")
	b.Add("p6", "by", "r3")
	sn := b.Freeze()
	res := run(t, sn, `SELECT ?r (COUNT(*) AS ?n) WHERE { ?p <by> ?r }
		GROUP BY ?r ORDER BY DESC(?n) ?r`)
	want := [][2]string{{"r1", "3"}, {"r3", "2"}, {"r2", "1"}}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0] != w[0] || res.Rows[i][1] != w[1] {
			t.Fatalf("aggregate order = %v, want %v", res.Rows, want)
		}
	}
	// Ordering by an aggregate expression not in the projection.
	res2 := run(t, sn, `SELECT ?r WHERE { ?p <by> ?r } GROUP BY ?r ORDER BY COUNT(*)`)
	if res2.Rows[0][0] != "r2" {
		t.Fatalf("order by hidden aggregate = %v", res2.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?w (COUNT(*) AS ?n) WHERE { ?p ex:worksAt ?w }
		GROUP BY ?w HAVING (COUNT(*) > 1)`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "2" {
		t.Fatalf("group rows = %v", res.Rows)
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?w (COUNT(*) AS ?n) WHERE { ?p ex:worksAt ?w }
		GROUP BY ?w HAVING (COUNT(*) > 2)`)
	if len(res2.Rows) != 0 {
		t.Fatalf("having should filter out all groups: %v", res2.Rows)
	}
}

func TestBindAndExpressionProjection(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?double WHERE { ?p ex:age ?a BIND (?a * 2 AS ?double) } ORDER BY ?double`)
	if len(res.Rows) != 3 || res.Rows[0][0] != "50" {
		t.Fatalf("bind rows = %v", res.Rows)
	}
}

func TestValues(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n VALUES ?n { "Alice" "Carol" } }`)
	if len(res.Rows) != 2 {
		t.Fatalf("values rows = %v", res.Rows)
	}
}

func TestSubquery(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE {
			?p ex:name ?n .
			{ SELECT ?p WHERE { ?p ex:worksAt ex:acme } }
		} ORDER BY ?n`)
	if len(res.Rows) != 2 || res.Rows[0][0] != "Alice" {
		t.Fatalf("subquery rows = %v", res.Rows)
	}
}

func TestPropertyPathInQuery(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?x WHERE { ex:alice ex:knows+ ?x }`)
	if len(res.Rows) != 2 {
		t.Fatalf("path rows = %v (want bob and carol)", res.Rows)
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		ASK { ex:alice ex:knows/ex:knows ex:carol }`)
	if !res2.Bool {
		t.Error("alice knows/knows carol")
	}
}

func TestExistsFilter(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n FILTER EXISTS { ?p ex:knows ?q } }`)
	if len(res.Rows) != 2 {
		t.Fatalf("exists rows = %v", res.Rows)
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n FILTER NOT EXISTS { ?p ex:knows ?q } }`)
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "Carol" {
		t.Fatalf("not exists rows = %v", res2.Rows)
	}
}

func TestBuiltins(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n FILTER regex(?n, "^[AB]") } ORDER BY ?n`)
	if len(res.Rows) != 2 {
		t.Fatalf("regex rows = %v", res.Rows)
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?p ex:name ?n FILTER (STRLEN(?n) = 5 && CONTAINS(LCASE(?n), "a")) }`)
	// Alice and Carol have length 5 and contain 'a' (case-folded).
	if len(res2.Rows) != 2 {
		t.Fatalf("builtin rows = %v", res2.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/> SELECT * WHERE { ?p ex:age ?a }`)
	if len(res.Vars) != 2 {
		t.Fatalf("star vars = %v", res.Vars)
	}
}

func TestGraphAndService(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?g ?n WHERE { GRAPH ?g { ?p ex:name ?n } }`)
	if len(res.Rows) != 3 || res.Rows[0][0] != DefaultGraph {
		t.Fatalf("graph rows = %v", res.Rows)
	}
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?n WHERE { SERVICE <http://remote/sparql> { ?p ex:name ?n } }`)
	if len(res2.Rows) != 3 {
		t.Fatalf("service rows = %v", res2.Rows)
	}
}

func TestConstruct(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		CONSTRUCT { ?a ex:coworker ?b }
		WHERE { ?a ex:worksAt ?w . ?b ex:worksAt ?w FILTER (?a != ?b) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("constructed triples = %v, want alice-bob both ways", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1] != "http://ex/coworker" {
			t.Errorf("predicate = %q", row[1])
		}
	}
	// Duplicate template instantiations deduplicate.
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		CONSTRUCT { ?w ex:isWorkplace "yes" } WHERE { ?p ex:worksAt ?w }`)
	if len(res2.Rows) != 1 {
		t.Fatalf("deduplicated construct = %v", res2.Rows)
	}
}

func TestDescribe(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/> DESCRIBE ex:alice`)
	// Every triple with alice as subject or object: 4 outgoing, 0 incoming.
	if len(res.Rows) != 4 {
		t.Fatalf("describe rows = %v", res.Rows)
	}
	// DESCRIBE with a WHERE clause describing bound resources.
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		DESCRIBE ?p WHERE { ?p ex:age "25" }`)
	found := false
	for _, row := range res2.Rows {
		if row[0] == "http://ex/bob" {
			found = true
		}
	}
	if !found {
		t.Errorf("describe ?p should cover bob: %v", res2.Rows)
	}
}

func TestEmptyResultAggregation(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT (COUNT(*) AS ?n) WHERE { ?p ex:nothing ?x }`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "0" {
		t.Fatalf("empty count = %v", res.Rows)
	}
}

func TestRepeatedVariableInTriple(t *testing.T) {
	b := peopleStore()
	b.Add("http://ex/self", "http://ex/knows", "http://ex/self")
	res := run(t, b.Freeze(), `PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:knows ?x }`)
	if len(res.Rows) != 1 {
		t.Fatalf("self-loop rows = %v", res.Rows)
	}
}

// TestPathObjectBoundLimitRegression pins the fix for the limit bug in
// object-bound path patterns: the old evaluator enumerated ALL path
// pairs capped at MaxRows BEFORE filtering on the bound object, so a
// match past the cap was silently dropped. The matching subjects here
// sit behind ten unrelated pair-producing chains; with MaxRows=5 the
// old code returned zero rows.
func TestPathObjectBoundLimitRegression(t *testing.T) {
	st := rdf.NewStore()
	// Ten noise chains whose pairs enumerate first.
	for i := 0; i < 10; i++ {
		st.Add("http://ex/x"+string(rune('a'+i)), "http://ex/p", "http://ex/y"+string(rune('a'+i)))
	}
	// The matches: w -p-> z -p-> target.
	st.Add("http://ex/w", "http://ex/p", "http://ex/z")
	st.Add("http://ex/z", "http://ex/p", "http://ex/target")
	sn := st.Freeze()
	q, err := sparql.Parse(`PREFIX ex: <http://ex/>
		SELECT ?s WHERE { ?s ex:p+ ex:target }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := QueryWithLimits(sn, q, Limits{MaxRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	if len(got) != 2 || !got["http://ex/w"] || !got["http://ex/z"] {
		t.Fatalf("object-bound path rows = %v, want w and z (limit must apply to surviving rows)", res.Rows)
	}
}

// TestPathPairsOverflowErrors pins the companion semantics for fully
// unbound paths: a result that genuinely exceeds MaxRows must fail with
// the row-limit error, not truncate silently at exactly MaxRows.
func TestPathPairsOverflowErrors(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 10; i++ {
		st.Add("http://ex/x"+string(rune('a'+i)), "http://ex/p", "http://ex/y"+string(rune('a'+i)))
	}
	sn := st.Freeze()
	q, err := sparql.Parse(`PREFIX ex: <http://ex/>
		SELECT ?s ?o WHERE { ?s ex:p+ ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QueryWithLimits(sn, q, Limits{MaxRows: 3}); err == nil {
		t.Fatal("10 pairs under MaxRows=3 must error, not truncate")
	}
	// Under the limit, all pairs come back.
	res, err := QueryWithLimits(sn, q, Limits{MaxRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("pair rows = %d, want 10", len(res.Rows))
	}
}

// TestPathSameVariableBothEnds: ?x path ?x must bind only loop nodes,
// consistently (the old pair enumeration bound the object end over the
// subject end, producing rows for non-loops).
func TestPathSameVariableBothEnds(t *testing.T) {
	st := rdf.NewStore()
	st.Add("http://ex/a", "http://ex/p", "http://ex/b")
	st.Add("http://ex/b", "http://ex/p", "http://ex/a")
	st.Add("http://ex/c", "http://ex/p", "http://ex/d") // no loop
	sn := st.Freeze()
	res := run(t, sn, `PREFIX ex: <http://ex/>
		SELECT ?x WHERE { ?x ex:p+ ?x }`)
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	if len(got) != 2 || !got["http://ex/a"] || !got["http://ex/b"] {
		t.Fatalf("loop rows = %v, want exactly a and b", res.Rows)
	}
}

// TestPathObjectBoundReverse exercises the reverse evaluation path on
// the social store, including through a pre-bound object variable.
func TestPathObjectBoundReverse(t *testing.T) {
	res := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?s WHERE { ?s ex:knows+ ex:carol }`)
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	if len(got) != 2 || !got["http://ex/alice"] || !got["http://ex/bob"] {
		t.Fatalf("reverse path rows = %v, want alice and bob", res.Rows)
	}
	// Object bound by an earlier pattern rather than a constant.
	res2 := run(t, people(), `PREFIX ex: <http://ex/>
		SELECT ?s ?o WHERE { ?o ex:name "Carol" . ?s ex:knows+ ?o }`)
	if len(res2.Rows) != 2 {
		t.Fatalf("pre-bound object path rows = %v", res2.Rows)
	}
}
