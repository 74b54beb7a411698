package eval

import (
	"context"
	"fmt"
	"testing"

	"sparqlog/internal/lint"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// TestStaticShortCircuitZeroProbes pins the tentpole contract: a query
// the linter proves empty is answered without a single snapshot index
// access, while the same query with the short circuit disabled probes
// the store and (necessarily) also returns nothing.
func TestStaticShortCircuitZeroProbes(t *testing.T) {
	sn := socialStore()
	for _, src := range []string{
		// Interval empty in both the numeric and lexicographic regime.
		`SELECT ?s WHERE { ?s <urn:age> ?o . FILTER(?o > 5 && ?o < 3) }`,
		`ASK { ?s <urn:knows> ?o . FILTER(false) }`,
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o != ?o) }`,
		`CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:knows> ?o . FILTER(?o = <urn:a> && ?o = <urn:b>) }`,
		`DESCRIBE ?s WHERE { ?s <urn:knows> ?o . FILTER(false) }`,
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := Query(sn, q)
		if err != nil {
			t.Fatalf("static eval of %q: %v", src, err)
		}
		if res.Probes != 0 {
			t.Errorf("%q: short-circuited eval made %d index probes, want 0", src, res.Probes)
		}
		if len(res.Rows) != 0 || res.Bool {
			t.Errorf("%q: short-circuited eval produced rows", src)
		}
		full, err := QueryWithLimits(sn, q, Limits{noStatic: true})
		if err != nil {
			t.Fatalf("full eval of %q: %v", src, err)
		}
		if full.Probes == 0 {
			t.Errorf("%q: noStatic eval reports zero probes — the meter is broken", src)
		}
		if len(full.Rows) != 0 || full.Bool {
			t.Errorf("%q: full eval found rows in a statically-empty query", src)
		}
	}
	// A LIMIT 0 subquery short-circuits statically too; under noStatic
	// the streaming limit already pulls nothing, so only the zero-probe
	// and emptiness contracts apply.
	q, err := sparql.Parse(`SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } LIMIT 0 } }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes != 0 || len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 subquery: probes=%d rows=%d, want 0/0", res.Probes, len(res.Rows))
	}
}

// TestProbesReported checks the meter on a live query: evaluation that
// touches the store reports its accesses.
func TestProbesReported(t *testing.T) {
	sn := socialStore()
	q, err := sparql.Parse(`SELECT ?s ?o WHERE { ?s <urn:knows> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Probes == 0 {
		t.Fatalf("live query: rows=%d probes=%d, want both > 0", len(res.Rows), res.Probes)
	}
}

// TestStaticShortCircuitAgreesWithLegacy runs statically-empty queries
// through the reference too, which has no short circuit: the short
// circuit must not change any answer.
func TestStaticShortCircuitAgreesWithLegacy(t *testing.T) {
	sn := socialStore()
	for _, src := range []string{
		`SELECT ?s WHERE { ?s <urn:age> ?o . FILTER(?o > 5 && ?o < 3) }`,
		`SELECT * WHERE { { ?s ?p ?o . FILTER(false) } UNION { ?s <urn:knows> ?o . FILTER(?o != ?o) } }`,
		`SELECT * WHERE { ?s <urn:knows> ?o OPTIONAL { ?s <urn:age> ?a . FILTER(false) } }`,
	} {
		diffColumnarReference(t, sn, src)
	}
}

// BenchmarkStaticShortCircuit measures the tentpole's payoff: the
// statically-empty query on a ~24k-triple store answered with zero
// probes versus the same query forced through full evaluation.
func BenchmarkStaticShortCircuit(b *testing.B) {
	st := rdf.NewStore()
	for i := 0; i < 8000; i++ {
		st.Add(fmt.Sprintf("urn:n%d", i), "urn:knows", fmt.Sprintf("urn:n%d", (i*7+1)%8000))
		st.Add(fmt.Sprintf("urn:n%d", i), "urn:age", fmt.Sprintf("%d", i%90))
		st.Add(fmt.Sprintf("urn:n%d", i), "urn:name", fmt.Sprintf("name%d", i))
	}
	sn := st.Freeze()
	q, err := sparql.Parse(`SELECT ?s WHERE { ?s <urn:age> ?o . FILTER(?o > 5 && ?o < 3) }`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(sn, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := QueryWithLimits(sn, q, Limits{noStatic: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestQueryAnswerTakesTheLintVerdict: given the request's lint result,
// evaluation takes its emptiness verdict and does not derive one. A
// statically empty query answers with zero probes, as without a lint
// result, and a verdict the evaluation would not have reached is still
// the one it obeys.
func TestQueryAnswerTakesTheLintVerdict(t *testing.T) {
	sn := socialStore()
	empty, err := sparql.Parse(`SELECT ?s WHERE { ?s <urn:age> ?o . FILTER(?o > 5 && ?o < 3) }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := QueryAnswer(context.Background(), sn, empty, lint.Run(empty), Limits{})
	if err != nil || res.Probes != 0 || res.Answer.Len() != 0 {
		t.Fatalf("statically empty query: %d probes, %v", res.Probes, err)
	}
	q, err := sparql.Parse(`SELECT ?s ?o WHERE { ?s <urn:knows> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	lr := lint.Run(q)
	if lr.Empty {
		t.Fatal("lint proves a plain triple pattern empty")
	}
	full, err := QueryAnswer(context.Background(), sn, q, lr, Limits{})
	if err != nil || full.Answer.Len() == 0 {
		t.Fatalf("linted query: %d rows, %v", full.Answer.Len(), err)
	}
	proved := *lr
	proved.Empty = true
	res, err = QueryAnswer(context.Background(), sn, q, &proved, Limits{})
	if err != nil || res.Probes != 0 || res.Answer.Len() != 0 {
		t.Fatalf("verdict not taken: %d probes, %d rows, %v", res.Probes, res.Answer.Len(), err)
	}
}
