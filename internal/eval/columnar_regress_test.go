package eval

import (
	"context"
	"fmt"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// runCounted evaluates on the columnar path and returns the result
// plus the number of dictionary materializations (Pool.Text calls)
// the execution performed.
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
	return res, ev.colPool.TextCalls()
}

// TestPathResultsStayAsIDs pins the satellite fix: pathcomp's sorted
// []rdf.ID output is routed straight into batch columns, so an
// object-bound (or loop-bound) path query materializes exactly one
// string per projected result cell — intermediate path nodes and
// dedup never touch the dictionary. The old evaluator re-resolved
// every path result to text per binding before dedup.
func TestPathResultsStayAsIDs(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 50; i++ {
		st.Add(fmt.Sprintf("urn:c%d", i), "urn:p", fmt.Sprintf("urn:c%d", i+1))
	}
	sn := st.Freeze()

	// Object-bound: all 50 ancestors of the chain tail, deduplicated
	// on ID tuples — one Text call per emitted row, none for dedup.
	res, calls := runCounted(t, sn, `SELECT DISTINCT ?s WHERE { ?s <urn:p>+ <urn:c50> }`)
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(res.Rows))
	}
	if calls != int64(len(res.Rows)) {
		t.Fatalf("dictionary lookups = %d, want exactly %d (one per projected cell)", calls, len(res.Rows))
	}

	// ?x path ?x: loop nodes only, again one lookup per result row.
	stLoop := rdf.NewStore()
	stLoop.Add("urn:a", "urn:p", "urn:b")
	stLoop.Add("urn:b", "urn:p", "urn:a")
	stLoop.Add("urn:c", "urn:p", "urn:d")
	res2, calls2 := runCounted(t, stLoop.Freeze(), `SELECT ?x WHERE { ?x <urn:p>+ ?x }`)
	if len(res2.Rows) != 2 {
		t.Fatalf("loop rows = %v, want a and b", res2.Rows)
	}
	if calls2 != int64(len(res2.Rows)) {
		t.Fatalf("dictionary lookups = %d, want %d", calls2, len(res2.Rows))
	}
}

// TestJoinDistinctStaysAsIDs extends the contract to the conjunctive
// core: a DISTINCT join query's dedup runs on packed ID tuples, so
// string materializations equal emitted cells, independent of the
// (much larger) intermediate result.
func TestJoinDistinctStaysAsIDs(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 30; i++ {
		for j := 0; j < 10; j++ {
			st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:m%d", j))
			st.Add(fmt.Sprintf("urn:m%d", j), "urn:q", "urn:hub")
		}
	}
	sn := st.Freeze()
	res, calls := runCounted(t, sn,
		`SELECT DISTINCT ?s WHERE { ?s <urn:p> ?m . ?m <urn:q> <urn:hub> }`)
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(res.Rows))
	}
	// 300 intermediate join rows, 30 emitted cells: the intermediate
	// result must not hit the dictionary.
	if calls != 30 {
		t.Fatalf("dictionary lookups = %d, want 30", calls)
	}
}

// TestFilterEdgeCasesDifferential covers expression-evaluation corners
// under the columnar executor, each run differentially against the
// legacy path and pinned against expected answers where stated.
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
		diffColumnarLegacy(t, sn, src)
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
