package sparql_test

import (
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// TestGeneratedCorpusRoundTrips is the strongest parser/serializer
// property we have: every valid query emitted by the synthetic generator
// (which builds ASTs and serializes them) must re-parse, and the result
// must serialize to the identical text (serialization is a fixpoint).
func TestGeneratedCorpusRoundTrips(t *testing.T) {
	p := &sparql.Parser{}
	for _, prof := range loggen.Profiles() {
		ds := loggen.Generate(prof, 300, 1234)
		var checked int
		for _, e := range ds.Entries {
			q, err := p.Parse(e)
			if err != nil {
				continue // invalid/noise entries by design
			}
			text := q.String()
			q2, err := p.Parse(text)
			if err != nil {
				t.Fatalf("%s: serialized form does not re-parse: %v\noriginal: %s\nserialized: %s",
					prof.Name, err, e, text)
			}
			if text2 := q2.String(); text2 != text {
				t.Fatalf("%s: serialization is not a fixpoint:\n 1: %s\n 2: %s", prof.Name, text, text2)
			}
			checked++
		}
		if checked < 100 {
			t.Errorf("%s: only %d round-trip checks; generator too noisy?", prof.Name, checked)
		}
	}
}

// TestRoundTripPreservesAnalysis verifies that re-parsing the serialized
// form preserves the analysis-relevant structure: triple count, path
// count, and query type.
func TestRoundTripPreservesAnalysis(t *testing.T) {
	p := &sparql.Parser{}
	ds := loggen.Generate(loggen.Profiles()[0], 500, 77)
	for _, e := range ds.Entries {
		q1, err := p.Parse(e)
		if err != nil {
			continue
		}
		// q1 is read after the second parse, which a reused Parser
		// would recycle.
		q2, err := sparql.Parse(q1.String())
		if err != nil {
			t.Fatal(err)
		}
		if q1.Type != q2.Type {
			t.Fatalf("type changed: %v -> %v", q1.Type, q2.Type)
		}
		if len(q1.Triples()) != len(q2.Triples()) {
			t.Fatalf("triple count changed: %d -> %d in %s", len(q1.Triples()), len(q2.Triples()), e)
		}
		if len(q1.PathPatterns()) != len(q2.PathPatterns()) {
			t.Fatalf("path count changed in %s", e)
		}
	}
}

// TestStringKeepsWrittenIRIForm pins that String writes every IRI the
// way it was written — a bracketed IRI bracketed, a prefixed name bare —
// in triple predicates, path atoms and function names alike, even when a
// bracketed IRI's text looks like a prefixed name.
func TestStringKeepsWrittenIRIForm(t *testing.T) {
	for _, src := range []string{
		"SELECT * WHERE { ?s <urn:p> ?o . ?s ex:p ?o }",
		"PREFIX foo: <http://x/> SELECT * WHERE { ?s <foo:bar>+ ?o . ?s foo:bar/<foo:q> ?o . ?s !(<foo:r>|^foo:r) ?o }",
		"SELECT * WHERE { ?s a/rdf:type ?o . FILTER ((<foo:f>(?o) && foo:g(?o)) && <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>(?o)) }",
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if got := q.String(); got != src {
			t.Errorf("String changed the written form:\n src: %s\n got: %s", src, got)
		}
	}
}
