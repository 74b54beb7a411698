package sparql

import "testing"

func fpOf(t *testing.T, src string) string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return QueryString(q)
}

func TestFingerprintVariableRenaming(t *testing.T) {
	a := fpOf(t, "SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z }")
	b := fpOf(t, "SELECT ?subject WHERE { ?subject <p> ?o . ?o <q> ?val }")
	if a != b {
		t.Errorf("alpha-equivalent queries differ:\n a: %s\n b: %s", a, b)
	}
	// Different structure must differ.
	c := fpOf(t, "SELECT ?x WHERE { ?x <p> ?y . ?x <q> ?z }")
	if a == c {
		t.Error("structurally different queries must not collide")
	}
}

func TestFingerprintPrefixExpansion(t *testing.T) {
	a := fpOf(t, "PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:p ?o }")
	b := fpOf(t, "SELECT * WHERE { ?s <http://ex/p> ?o }")
	if a != b {
		t.Errorf("prefix expansion failed:\n a: %s\n b: %s", a, b)
	}
	// A different prefix name binding the same IRI is also equal.
	c := fpOf(t, "PREFIX zz: <http://ex/> SELECT * WHERE { ?s zz:p ?o }")
	if a != c {
		t.Errorf("prefix name should not matter:\n a: %s\n c: %s", a, c)
	}
}

func TestFingerprintWhitespaceInsensitive(t *testing.T) {
	a := fpOf(t, "SELECT ?x WHERE { ?x <p> ?y }")
	b := fpOf(t, "SELECT   ?x\nWHERE {\n\t?x   <p>\t?y\n}")
	if a != b {
		t.Error("whitespace must not affect the fingerprint")
	}
}

func TestFingerprintBlankNodes(t *testing.T) {
	a := fpOf(t, "SELECT * WHERE { _:a <p> ?x }")
	b := fpOf(t, "SELECT * WHERE { _:zzz <p> ?y }")
	if a != b {
		t.Error("blank node labels must not matter")
	}
}

func TestFingerprintCoversClauses(t *testing.T) {
	// The exact canonical bytes of feature-rich queries, one clause kind
	// per row. They key the result cache and the structural dedup, so a
	// writer change that moves any of them is a change of key. Each key
	// must also be stable (computing twice gives the same string) and
	// parseable.
	cases := []struct{ src, want string }{
		{
			`PREFIX ex: <http://ex/> SELECT DISTINCT ?a (COUNT(?b) AS ?n)
			 WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } FILTER(?c > 3)
			 { ?a ex:r ?d } UNION { ?a ex:s ?d } MINUS { ?a ex:t ?x }
			 BIND(str(?a) AS ?w) VALUES ?d { ex:v1 ex:v2 } }
			 GROUP BY ?a HAVING (COUNT(?b) > 1) ORDER BY DESC(?n) LIMIT 5 OFFSET 2`,
			"SELECT DISTINCT ?v0 (COUNT(?v2) AS ?v1) WHERE { ?v0 <http://ex/p> ?v2 . OPTIONAL { ?v2 <http://ex/q> ?v3 } . FILTER (?v3 > 3) . { ?v0 <http://ex/r> ?v4 } UNION { ?v0 <http://ex/s> ?v4 } . MINUS { ?v0 <http://ex/t> ?v5 } . BIND (STR(?v0) AS ?v6) . VALUES ?v4 { <http://ex/v1> <http://ex/v2> } } GROUP BY ?v0 HAVING (COUNT(?v2) > 1) ORDER BY DESC(?v1) LIMIT 5 OFFSET 2",
		},
		// NOT EXISTS, and an inverse path.
		{
			`ASK { ?x <http://ex/a>/^<http://ex/b>* ?y FILTER NOT EXISTS { ?x <http://ex/c> ?z } }`,
			"ASK { ?v0 <http://ex/a>/^(<http://ex/b>*) ?v1 . FILTER (NOT EXISTS { ?v0 <http://ex/c> ?v2 }) }",
		},
		// A CONSTRUCT template.
		{
			`PREFIX ex: <http://ex/> CONSTRUCT { ?s ex:p ?o } WHERE { ?s ex:q ?o }`,
			"CONSTRUCT { ?v0 <http://ex/p> ?v1 } WHERE { ?v0 <http://ex/q> ?v1 }",
		},
		// CONSTRUCT WHERE numbers its template (the WHERE's triples) first.
		{
			`CONSTRUCT WHERE { ?x <http://ex/p>+ ?z . ?y <http://ex/q> ?x }`,
			"CONSTRUCT WHERE { ?v1 <http://ex/p>+ ?v2 . ?v0 <http://ex/q> ?v1 }",
		},
		{
			`DESCRIBE ?x WHERE { ?x <http://ex/a> ?y } LIMIT 3`,
			"DESCRIBE ?v0 WHERE { ?v0 <http://ex/a> ?v1 } LIMIT 3",
		},
		{
			`PREFIX ex: <http://ex/> DESCRIBE ex:a ?z`,
			"DESCRIBE <http://ex/a> ?v0",
		},
		// A subquery shares the outer query's renaming.
		{
			`SELECT ?s WHERE { { SELECT ?s WHERE { ?s <http://ex/p> ?q } LIMIT 2 } }`,
			"SELECT ?v0 WHERE { { SELECT ?v0 WHERE { ?v0 <http://ex/p> ?v1 } LIMIT 2 } }",
		},
		// SELECT (expr AS ?x) numbers ?x before the expression's variables.
		{
			`SELECT (?b + 1 AS ?a) ?b WHERE { ?b <http://ex/p> ?c }`,
			"SELECT (?v1 + 1 AS ?v0) ?v1 WHERE { ?v1 <http://ex/p> ?v2 }",
		},
		{
			`SELECT ?g (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> ?o } GROUP BY (STR(?o) AS ?g)`,
			"SELECT ?v0 (COUNT(*) AS ?v1) WHERE { ?v2 <http://ex/p> ?v3 } GROUP BY (STR(?v3) AS ?v0)",
		},
		{
			`SELECT * WHERE { ?s <http://ex/p> ?o BIND(STRLEN(?o) AS ?len) }`,
			"SELECT * WHERE { ?v0 <http://ex/p> ?v1 . BIND (STRLEN(?v1) AS ?v2) }",
		},
		{
			`SELECT * WHERE { VALUES (?x ?y) { (1 UNDEF) (UNDEF <http://ex/v>) } ?x <http://ex/p> ?y }`,
			"SELECT * WHERE { VALUES (?v0 ?v1) { (1 UNDEF) (UNDEF <http://ex/v>) } . ?v0 <http://ex/p> ?v1 }",
		},
		// Blank nodes, labelled and anonymous, share the variables' numbering.
		{
			`SELECT * WHERE { _:b1 <http://ex/p> [ <http://ex/q> ?x ] . _:b1 <http://ex/r> _:b2 }`,
			"SELECT * WHERE { _:v0 <http://ex/q> ?v1 . _:v2 <http://ex/p> _:v0 . _:v2 <http://ex/r> _:v3 }",
		},
		// Inverse and alternative paths: prefixed atoms expand and bracket.
		{
			`PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:a|^ex:b ?y . ?y (ex:c|ex:d)+ ?z . ?z !(a|^ex:e) ?w }`,
			"SELECT * WHERE { ?v0 <http://ex/a>|^<http://ex/b> ?v1 . ?v1 (<http://ex/c>|<http://ex/d>)+ ?v2 . ?v2 !(a|^<http://ex/e>) ?v3 }",
		},
		// A function IRI is written as parsed.
		{
			`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y FILTER(ex:f(?y)) }`,
			"SELECT ?v0 WHERE { ?v0 <http://ex/p> ?v1 . FILTER (ex:f(?v1)) }",
		},
	}
	for _, tc := range cases {
		q, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		f1 := QueryString(q)
		if f1 != tc.want {
			t.Errorf("QueryString(%s)\n got: %s\nwant: %s", tc.src, f1, tc.want)
		}
		if f2 := QueryString(q); f1 != f2 {
			t.Errorf("fingerprint not deterministic for %s", tc.src)
		}
		if _, err := Parse(f1); err != nil {
			t.Errorf("fingerprint is not valid SPARQL: %v\n%s", err, f1)
		}
	}

	// UNION branches canonicalize under one renaming: the same shape
	// over other variables stays distinct, and the same variables swapped
	// do too.
	for _, tc := range []struct {
		src  string
		want [2]string
	}{
		{
			`PREFIX ex: <http://ex/> SELECT * WHERE { { ?a ex:p ?b } UNION { ?c ex:p ?d } }`,
			[2]string{"{ ?v0 <http://ex/p> ?v1 }", "{ ?v2 <http://ex/p> ?v3 }"},
		},
		{
			`PREFIX ex: <http://ex/> SELECT * WHERE { { ?a ex:p ?b } UNION { ?b ex:p ?a } }`,
			[2]string{"{ ?v0 <http://ex/p> ?v1 }", "{ ?v1 <http://ex/p> ?v0 }"},
		},
	} {
		q, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		u := q.Where.(*Group).Elems[0].(*Union)
		if got := CanonPatternStrings(q.Prologue, u.Left, u.Right); [2]string(got) != tc.want {
			t.Errorf("CanonPatternStrings(%s) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestFingerprintDoesNotMutateOriginal(t *testing.T) {
	q, err := Parse("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }")
	if err != nil {
		t.Fatal(err)
	}
	before := q.String()
	QueryString(q)
	if q.String() != before {
		t.Error("QueryString must not mutate the query")
	}
}
