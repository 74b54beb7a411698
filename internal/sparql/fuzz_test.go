package sparql_test

import (
	"testing"

	"sparqlog/internal/sparql"
)

// FuzzParse throws arbitrary input at the parser. The parser must never
// panic, and any query it accepts must survive the serializer round-trip:
// the serialized form re-parses, and serialization is a fixpoint (the
// same property TestGeneratedCorpusRoundTrips checks on generator
// output, here extended to adversarial input). MayParse must admit it.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	p := &sparql.Parser{}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := p.Parse(src)
		if err != nil {
			return
		}
		if !sparql.MayParse(src) {
			t.Fatalf("MayParse(%q) = false for a text that parses", src)
		}
		text := q.String()
		q2, err := p.Parse(text)
		if err != nil {
			t.Fatalf("serialized form does not re-parse: %v\noriginal: %q\nserialized: %q", err, src, text)
		}
		if text2 := q2.String(); text2 != text {
			t.Fatalf("serialization is not a fixpoint:\n 1: %q\n 2: %q", text, text2)
		}
	})
}

// parseSeeds is FuzzParse's seed corpus; FuzzScopeOracle starts from it
// too.
var parseSeeds = []string{
	"SELECT ?s WHERE { ?s ?p ?o }",
	"SELECT DISTINCT ?x ?y WHERE { ?x <p> ?y . ?y <q> ?z FILTER(?z > 3) } ORDER BY ?x LIMIT 10 OFFSET 5",
	"ASK { ?x <knows> ?y MINUS { ?x <blocks> ?y } }",
	"PREFIX dbo: <http://dbpedia.org/ontology/> SELECT ?s WHERE { ?s dbo:birthPlace ?o OPTIONAL { ?s dbo:deathPlace ?d } }",
	"CONSTRUCT { ?s <p> ?o } WHERE { ?s <p> ?o }",
	"DESCRIBE <http://example.org/x>",
	"SELECT ?n (COUNT(*) AS ?c) WHERE { { ?a <p> ?n } UNION { ?b <q> ?n } } GROUP BY ?n HAVING (COUNT(*) > 1)",
	"SELECT * WHERE { GRAPH ?g { ?s ?p ?o } FILTER NOT EXISTS { ?s <hidden> true } }",
	"SELECT ?x WHERE { ?x (<a>|<b>)*/^<c> ?y }",
	"SELECT ?x WHERE { ?x !(<a>|<b>) ?y . ?y <p>+ ?z }",
	"SELECT ?x WHERE { VALUES ?x { <a> <b> } SERVICE <http://remote/sparql> { ?x <p> ?y } }",
	"SELECT ?x WHERE { ?x <p> \"lit\"@en ; <q> 42 , 4.2e1 . [] <r> [ <s> ?x ] }",
	"SELECT ?x { { SELECT ?x WHERE { ?x a <C> } LIMIT 1 } BIND(?x AS ?y) }",
	"select?x where{?x<p>?y}",
	"SELECT ?x WHERE { ?x <p> ?y } # trailing comment",
	"PREFIX : <u> ASK { :a :b :c }",
	"SELECT",
	"{}",
	"",
	// The planner's canonicalized-shape corpus: the conjunctive
	// shapes the cost-based planner (internal/plan) caches plans by —
	// star, chain, cycle, snowflake, and the selective-atom-last
	// orders the planner exists to fix. Fuzzing from these shapes
	// exercises the parser on exactly the BGP structures the
	// planner-ordered evaluator rewrites.
	"SELECT * WHERE { ?c <p0> ?a . ?c <p1> ?b . ?c <p2> ?d . ?c <p3> <konst> }",
	"SELECT * WHERE { ?x0 <p0> ?x1 . ?x1 <p1> ?x2 . ?x2 <p2> ?x3 . ?x3 <p3> ?x4 }",
	"ASK { ?x0 <p0> ?x1 . ?x1 <p1> ?x2 . ?x2 <p2> ?x0 }",
	"SELECT * WHERE { ?c <p0> ?a . ?a <p1> ?t . ?c <p2> ?b . ?b <p3> ?u }",
	"SELECT ?p1 ?r WHERE { ?p1 <cites> ?p2 . ?p2 <cites> ?p3 . ?p1 <authoredBy> ?r . ?p1 <publishedIn> <j1> }",
	"SELECT * WHERE { ?s ?p0 ?o . ?o ?p0 ?s }",
	"SELECT * WHERE { <s> <p> <o> . ?x <p> ?y . ?x <q> ?x }",
}
