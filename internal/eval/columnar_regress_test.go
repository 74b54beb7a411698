package eval

import (
	"context"
	"fmt"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// runCounted evaluates on the columnar path and returns the result
// (its Answer; no rows are materialized) plus the number of dictionary
// materializations (Pool.Text calls) the execution performed.
func runCounted(t *testing.T, sn *rdf.Snapshot, src string) (*Result, int64) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ev := &evaluator{st: sn, prefixes: q.Prologue.PrefixMap(), lim: Limits{MaxRows: DefaultMaxRows}, ctx: context.Background()}
	res, err := ev.query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatalf("columnar evaluation of %q materialized string rows", src)
	}
	return res, ev.colPool.TextCalls()
}

// TestPathResultsStayAsIDs pins IDs until serialization for compiled
// paths: pathcomp's sorted []rdf.ID output is routed straight into
// batch columns and from there into the answer's columns, so an
// object-bound (or loop-bound) path query with a plain projection
// materializes no text at all — not for intermediate path nodes, not
// for dedup, not for the projected cells. (The evaluator before the
// columnar answer paid one string per projected cell; the one before
// that re-resolved every path result per binding.)
func TestPathResultsStayAsIDs(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 50; i++ {
		st.Add(fmt.Sprintf("urn:c%d", i), "urn:p", fmt.Sprintf("urn:c%d", i+1))
	}
	sn := st.Freeze()

	// Object-bound: all 50 ancestors of the chain tail, deduplicated
	// on ID tuples.
	res, calls := runCounted(t, sn, `SELECT DISTINCT ?s WHERE { ?s <urn:p>+ <urn:c50> }`)
	if res.Answer.Len() != 50 {
		t.Fatalf("rows = %d, want 50", res.Answer.Len())
	}
	if calls != 0 {
		t.Fatalf("dictionary lookups = %d, want 0 before serialization", calls)
	}

	// ?x path ?x: loop nodes only.
	stLoop := rdf.NewStore()
	stLoop.Add("urn:a", "urn:p", "urn:b")
	stLoop.Add("urn:b", "urn:p", "urn:a")
	stLoop.Add("urn:c", "urn:p", "urn:d")
	snLoop := stLoop.Freeze()
	res2, calls2 := runCounted(t, snLoop, `SELECT ?x WHERE { ?x <urn:p>+ ?x }`)
	if res2.Answer.Len() != 2 {
		t.Fatalf("loop rows = %v, want a and b", res2.Answer.Rows(snLoop))
	}
	if calls2 != 0 {
		t.Fatalf("dictionary lookups = %d, want 0 before serialization", calls2)
	}
}

// TestJoinDistinctStaysAsIDs extends the contract to the conjunctive
// core: a DISTINCT join query's dedup runs on packed ID tuples and its
// projection appends ID columns, so neither the (much larger)
// intermediate result nor the emitted cells touch the dictionary. The
// same holds for SELECT *, ORDER BY's survivors, a subquery's rows
// crossing into the outer query, a CONSTRUCT template's instances and
// DESCRIBE's targets.
func TestJoinDistinctStaysAsIDs(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 30; i++ {
		for j := 0; j < 10; j++ {
			st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:m%d", j))
			st.Add(fmt.Sprintf("urn:m%d", j), "urn:q", "urn:hub")
		}
	}
	sn := st.Freeze()
	for _, tc := range []struct {
		src  string
		rows int
	}{
		// 300 intermediate join rows, 30 emitted cells.
		{`SELECT DISTINCT ?s WHERE { ?s <urn:p> ?m . ?m <urn:q> <urn:hub> }`, 30},
		{`SELECT * WHERE { ?s <urn:p> ?m . ?m <urn:q> <urn:hub> }`, 300},
		{`SELECT DISTINCT * WHERE { ?s <urn:p> ?m } LIMIT 7`, 7},
		{`SELECT ?s ?m WHERE { { SELECT ?m WHERE { ?m <urn:q> <urn:hub> } } ?s <urn:p> ?m }`, 300},
		{`CONSTRUCT { ?m <urn:r> ?s . ?m <urn:r> ?s } WHERE { ?s <urn:p> ?m }`, 300},
		{`DESCRIBE ?m WHERE { ?m <urn:q> <urn:hub> }`, 310},
	} {
		res, calls := runCounted(t, sn, tc.src)
		if res.Answer.Len() != tc.rows {
			t.Fatalf("%s: rows = %d, want %d", tc.src, res.Answer.Len(), tc.rows)
		}
		if calls != 0 {
			t.Fatalf("%s: dictionary lookups = %d, want 0 before serialization", tc.src, calls)
		}
	}
}

// TestFilterEdgeCasesDifferential covers expression-evaluation corners
// under the columnar executor, each run differentially against the
// reference and pinned against expected answers where stated.
func TestFilterEdgeCasesDifferential(t *testing.T) {
	st := rdf.NewStore()
	st.Add("urn:a", "urn:age", "25")
	st.Add("urn:b", "urn:age", "9")
	st.Add("urn:c", "urn:age", "200")
	st.Add("urn:d", "urn:age", "abc") // non-numeric lexical form
	st.Add("urn:a", "urn:name", "ann")
	st.Add("urn:c", "urn:name", "cee")
	st.Add("urn:a", "urn:knows", "urn:c")
	sn := st.Freeze()

	for _, src := range []string{
		// Numeric promotion: "25" > "9" numerically, not lexically.
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a > 24) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a >= 9 && ?a <= 25) }`,
		// Mixed numeric/string comparison falls back to lexical.
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a < "abc") }`,
		// Arithmetic: promotion, division, division by zero (error -> false).
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a * 2 > 49) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a / 0 > 0) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (-?a < -24) }`,
		// Unbound variables: plain error, BOUND, error-tolerant || / &&,
		// COALESCE fallback.
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?missing > 1) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } FILTER (!BOUND(?n)) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } FILTER (BOUND(?n) || ?a < 10) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } FILTER (?n != "ann" && ?a > 0) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } FILTER (COALESCE(?n, "zz") = "zz") }`,
		// IN / NOT IN, IF over an errored branch.
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a IN (9, 200, 7)) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a NOT IN (25)) }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER (IF(?a > 10, true, ?missing) ) }`,
		// String builtins on computed values.
		`SELECT ?x WHERE { ?x <urn:name> ?n FILTER (STRLEN(UCASE(?n)) = 3 && CONTAINS(?n, "a")) }`,
		// Nested NOT EXISTS with correlation through the outer row.
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER NOT EXISTS { ?x <urn:knows> ?y FILTER NOT EXISTS { ?y <urn:name> ?m } } }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a FILTER EXISTS { ?x <urn:knows> ?y . ?y <urn:age> ?b FILTER (?b > ?a) } }`,
	} {
		diffColumnarReference(t, sn, src)
	}

	// Absolute pins for the trickiest three.
	// 25 and 200 pass numerically; "abc" passes through the lexical
	// fallback for mixed-type comparison ("abc" > "24").
	res := run(t, sn, `SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?a > 24) }`)
	if len(res.Rows) != 3 {
		t.Fatalf("numeric promotion: rows = %v, want urn:a, urn:c, urn:d", res.Rows)
	}
	res = run(t, sn, `SELECT ?x WHERE { ?x <urn:age> ?a FILTER (?missing > 1) }`)
	if len(res.Rows) != 0 {
		t.Fatalf("unbound comparison must error to false: %v", res.Rows)
	}
	res = run(t, sn, `SELECT ?x WHERE { ?x <urn:age> ?a FILTER EXISTS { ?x <urn:knows> ?y . ?y <urn:age> ?b FILTER (?b > ?a) } }`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "urn:a" {
		t.Fatalf("correlated EXISTS: rows = %v, want urn:a only", res.Rows)
	}
}
