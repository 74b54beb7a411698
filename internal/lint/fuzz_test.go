package lint

import (
	"testing"

	"sparqlog/internal/paths"
	"sparqlog/internal/sparql"
)

// FuzzLintNoPanic feeds arbitrary query text through the whole static
// surface: whatever parses must lint without panicking and Empty must
// decide. Seeded with planner shapes, every pass's trigger, and the
// Table-5 path corpus wrapped into queries.
func FuzzLintNoPanic(f *testing.F) {
	for _, ex := range paths.Corpus() {
		f.Add(`SELECT ?x ?y WHERE { ?x ` + ex.Expr + ` ?y }`)
	}
	for _, src := range []string{
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o > 5 && ?o < 3) }`,
		`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:p> ?d }`,
		`SELECT ?s ?x WHERE { ?s ?p ?o . FILTER(?x > 1) }`,
		`SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?y <urn:r> ?x } OPTIONAL { ?z <urn:q> ?x } }`,
		`SELECT * WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } }`,
		`SELECT ?a WHERE { ?a <urn:p> ?b . ?a <urn:q> ?c . FILTER(?b = ?c) }`,
		`PREFIX ex: <http://example.org/> ASK { ?s ex:p ?o . FILTER(?o = ex:a && ?o = ex:b) }`,
		`SELECT (COUNT(*) AS ?c) WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 0 } } GROUP BY ?c`,
		`SELECT * WHERE { GRAPH ?g { ?s ?p ?o . FILTER(BOUND(?g)) } MINUS { ?s <urn:q> ?v } }`,
		`DESCRIBE ?s ?gone WHERE { ?s ?p ?o . VALUES ?v { } }`,
		`CONSTRUCT { ?s ?p ?o } WHERE { SERVICE SILENT <urn:remote> { ?s ?p ?o . FILTER(false) } }`,
		`SELECT * WHERE { ?s ?p "01" . FILTER(?o = "1" && ?o = "01") } ORDER BY ?s LIMIT 3 OFFSET 1`,
		`SELECT * WHERE { ?x <urn:p> ?y . FILTER(?x != ?x || COALESCE(?y, 1) > 0) }`,
		`SELECT * WHERE { ?x <urn:p> ?y . FILTER(EXISTS { ?y <urn:q> ?z }) . BIND(?x + 1 AS ?w) }`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		r := Run(q) // must not panic on any parsable query
		for _, d := range r.Diagnostics {
			if d.Code == "" || d.Path == "" || d.Message == "" {
				t.Fatalf("malformed diagnostic %+v on %q", d, src)
			}
		}
		// A statically-empty query must carry the proof in some form the
		// evaluator can also reach (EmptyUnder is what eval consults).
		if r.Empty != EmptyUnder(q, q.Prologue.PrefixMap()) {
			t.Fatalf("Empty/EmptyUnder disagree on %q", src)
		}
	})
}
