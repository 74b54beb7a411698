package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// diffColumnarReference evaluates src on the columnar executor and the
// reference evaluator and requires identical results: ASK answer,
// projection, and the solution multiset (order-insensitive; SPARQL
// solution sequences without ORDER BY are unordered, and the comparison
// must not depend on internal enumeration order).
func diffColumnarReference(t *testing.T, sn *rdf.Snapshot, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	columnar, cerr := QueryWithLimits(sn, q, Limits{})
	ref, rerr := queryReference(sn, q, Limits{})
	if (cerr == nil) != (rerr == nil) {
		t.Fatalf("error divergence on %q: columnar=%v reference=%v", src, cerr, rerr)
	}
	if cerr != nil {
		return
	}
	if columnar.Bool != ref.Bool {
		t.Fatalf("ASK diverges on %q: columnar=%v reference=%v", src, columnar.Bool, ref.Bool)
	}
	if strings.Join(columnar.Vars, ",") != strings.Join(ref.Vars, ",") {
		t.Fatalf("vars diverge on %q: %v vs %v", src, columnar.Vars, ref.Vars)
	}
	a, b := sortedRows(columnar), sortedRows(ref)
	if len(a) != len(b) {
		t.Fatalf("row counts diverge on %q: columnar=%d reference=%d", src, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rows diverge on %q at %d:\ncolumnar:  %q\nreference: %q", src, i, a[i], b[i])
		}
	}
}

// socialStore builds the store the operator differential runs on: a
// knows-cycle with ages, names, tags and a self-loop, dense enough
// that every operator has work and holes (missing ages/names) so
// OPTIONAL/MINUS/BOUND take both branches.
func socialStore() *rdf.Snapshot {
	st := rdf.NewStore()
	for i := 0; i < 12; i++ {
		st.Add(fmt.Sprintf("urn:a%d", i), "urn:knows", fmt.Sprintf("urn:a%d", (i+1)%12))
		if i%2 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:age", fmt.Sprintf("%d", 20+i))
		}
		if i%3 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:name", fmt.Sprintf("n%d", i))
		}
		if i%4 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:tag", "urn:gold")
		}
	}
	st.Add("urn:a0", "urn:special", "urn:a5")
	st.Add("urn:loop", "urn:knows", "urn:loop")
	return st.Freeze()
}

// TestColumnarDifferentialOperators runs every operator family through
// both executors on a fixed store: the consistency corpus's structured
// half.
func TestColumnarDifferentialOperators(t *testing.T) {
	sn := socialStore()
	for _, src := range []string{
		// Plain BGPs, repeated variables, dead constants.
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		`SELECT * WHERE { ?x <urn:knows> ?x }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:nothere> ?z }`,
		`SELECT ?p WHERE { <urn:a0> ?p ?o }`,
		`SELECT * WHERE { ?s ?p ?o }`,
		// OPTIONAL with holes, nested OPTIONAL.
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a } }`,
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a OPTIONAL { ?y <urn:name> ?n } } }`,
		// UNION, incl. branches binding different variables.
		`SELECT * WHERE { { ?x <urn:age> ?v } UNION { ?x <urn:name> ?v } }`,
		`SELECT * WHERE { { ?x <urn:tag> ?t } UNION { ?x <urn:special> ?s } }`,
		// MINUS: shared and disjoint domains.
		`SELECT * WHERE { ?x <urn:knows> ?y MINUS { ?x <urn:tag> <urn:gold> } }`,
		`SELECT * WHERE { ?x <urn:age> ?a MINUS { ?y <urn:name> ?n } }`,
		// FILTER families: comparisons, logic, errors-as-false, EXISTS.
		`SELECT * WHERE { ?x <urn:age> ?a FILTER (?a > 24) }`,
		`SELECT * WHERE { ?x <urn:knows> ?y FILTER (BOUND(?y) && ?y != <urn:a3>) }`,
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a } FILTER (?a > 22) }`,
		`SELECT * WHERE { ?x <urn:name> ?n FILTER EXISTS { ?x <urn:age> ?a } }`,
		`SELECT * WHERE { ?x <urn:name> ?n FILTER NOT EXISTS { ?x <urn:tag> <urn:gold> } }`,
		`SELECT * WHERE { ?x <urn:name> ?n FILTER NOT EXISTS { ?x <urn:age> ?a FILTER NOT EXISTS { ?x <urn:tag> <urn:gold> } } }`,
		// An EXISTS runs its inner operators in the middle of the outer
		// expression, which then reads the outer row again: each
		// operator evaluates on its own env (an inner row binds ?a where
		// the outer row leaves it unbound).
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a } FILTER (EXISTS { ?y <urn:knows> ?z . ?z <urn:age> ?a FILTER (?a > 0) } && !BOUND(?a)) }`,
		`SELECT ?x ?e WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a } BIND (EXISTS { ?y <urn:knows> ?z . ?z <urn:age> ?a FILTER (?a > 0) } && !BOUND(?a) AS ?e) }`,
		`SELECT * WHERE { ?x <urn:age> ?a FILTER (EXISTS { ?x <urn:knows> ?y FILTER (?y != <urn:a4>) } && ?a > 22) }`,
		`SELECT * WHERE { ?x <urn:knows> ?y FILTER (NOT EXISTS { ?y <urn:knows> ?z . ?z <urn:age> ?b FILTER (?b > 24) } || ?x = <urn:a0>) }`,
		`SELECT * WHERE { ?x <urn:age> ?a BIND (EXISTS { ?x <urn:knows> ?y BIND (?a + 1 AS ?c) FILTER (?c > 25) } AS ?e) }`,
		`SELECT ?x (EXISTS { ?x <urn:knows> ?y FILTER (?y != <urn:a1>) } && BOUND(?a) AS ?e) WHERE { ?x <urn:knows> ?z OPTIONAL { ?x <urn:age> ?a } } ORDER BY DESC(EXISTS { ?z <urn:age> ?w FILTER (?w > 22) }) ?x`,
		// BIND, VALUES (inline and trailing), GRAPH, SERVICE.
		`SELECT * WHERE { ?x <urn:age> ?a BIND (?a * 2 AS ?d) FILTER (?d > 48) }`,
		`SELECT * WHERE { ?x <urn:knows> ?y VALUES ?x { <urn:a2> <urn:a7> <urn:absent> } }`,
		`SELECT * WHERE { VALUES ?x { <urn:a0> <urn:a6> } ?x <urn:knows> ?y }`,
		`SELECT ?x ?y WHERE { ?x <urn:special> ?y } VALUES ?x { <urn:a0> }`,
		`SELECT ?g ?x WHERE { GRAPH ?g { ?x <urn:tag> <urn:gold> } }`,
		`SELECT ?x WHERE { SERVICE <http://remote/> { ?x <urn:special> ?y } }`,
		`SELECT ?x WHERE { SERVICE SILENT <http://remote/> { ?x <urn:special> ?y } }`,
		// Subqueries.
		`SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:tag> <urn:gold> } } ?x <urn:knows> ?y }`,
		`SELECT * WHERE { ?x <urn:knows> ?y { SELECT ?y (COUNT(*) AS ?c) WHERE { ?y <urn:knows> ?z } GROUP BY ?y } }`,
		// Property paths: forward, reverse, loops, pairs, pre-bound ends.
		`SELECT ?y WHERE { <urn:a0> <urn:knows>+ ?y }`,
		`SELECT ?x WHERE { ?x <urn:knows>+ <urn:a5> }`,
		`SELECT ?x WHERE { ?x <urn:knows>+ ?x }`,
		`SELECT * WHERE { ?x <urn:special>/<urn:knows> ?y }`,
		`SELECT * WHERE { ?x <urn:tag> <urn:gold> . ?x (<urn:knows>|<urn:special>)+ ?y }`,
		`ASK { <urn:a0> <urn:knows>/<urn:knows> <urn:a2> }`,
		`ASK { <urn:a0> <urn:nothere>+ <urn:a2> }`,
		// Solution modifiers: DISTINCT/REDUCED, ORDER, slicing, star.
		`SELECT DISTINCT ?y WHERE { ?x <urn:knows> ?y . ?z <urn:knows> ?y }`,
		`SELECT REDUCED ?a WHERE { ?x <urn:age> ?a }`,
		`SELECT ?a WHERE { ?x <urn:age> ?a } ORDER BY DESC(?a) LIMIT 3`,
		`SELECT ?n WHERE { ?x <urn:name> ?n } ORDER BY ?n OFFSET 1 LIMIT 2`,
		`SELECT DISTINCT ?t WHERE { ?x <urn:tag> ?t } LIMIT 1`,
		// Aggregation: grouped, having, hidden order keys, empty input.
		`SELECT ?y (COUNT(*) AS ?c) WHERE { ?x <urn:knows> ?y } GROUP BY ?y ORDER BY DESC(?c) ?y`,
		`SELECT ?x (SUM(?a) AS ?s) WHERE { ?x <urn:age> ?a } GROUP BY ?x HAVING (SUM(?a) > 23)`,
		`SELECT (COUNT(*) AS ?c) (MAX(?a) AS ?m) WHERE { ?x <urn:age> ?a }`,
		`SELECT (COUNT(*) AS ?c) WHERE { ?x <urn:nothere> ?a }`,
		`SELECT (GROUP_CONCAT(?n ; separator=",") AS ?all) WHERE { ?x <urn:name> ?n }`,
		// Expression projections.
		`SELECT (?a + 1 AS ?b) WHERE { ?x <urn:age> ?a } ORDER BY ?b`,
		// Empty lexical forms bind nothing (Unbound is ""), uniformly.
		`SELECT ?x ?e WHERE { ?x <urn:age> ?a BIND ("" AS ?e) FILTER (BOUND(?e)) }`,
		`SELECT ?x ?e WHERE { ?x <urn:age> ?a BIND ("" AS ?e) FILTER (!BOUND(?e)) }`,
		`SELECT ?x ?e WHERE { ?x <urn:age> ?a BIND ("" AS ?e) } VALUES ?e { "z" }`,
		`SELECT ?x ?l WHERE { ?x <urn:name> ?n BIND (LANG(?n) AS ?l) }`,
		// ASK over operators.
		`ASK { ?x <urn:age> ?a FILTER (?a > 100) }`,
		`ASK { ?x <urn:tag> <urn:gold> MINUS { ?x <urn:age> ?a } }`,
		// CONSTRUCT / DESCRIBE.
		`CONSTRUCT { ?y <urn:knownBy> ?x } WHERE { ?x <urn:knows> ?y }`,
		`DESCRIBE <urn:a0>`,
		`DESCRIBE ?x WHERE { ?x <urn:tag> <urn:gold> }`,
	} {
		diffColumnarReference(t, sn, src)
	}
}

// TestColumnarDifferentialRandom is the randomized half: random small
// stores, random operator trees mixing BGPs with OPTIONAL / UNION /
// MINUS / FILTER / VALUES / DISTINCT and property paths.
func TestColumnarDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 150; trial++ {
		st := rdf.NewStore()
		nNodes := 4 + rng.Intn(10)
		nPreds := 1 + rng.Intn(3)
		for i := 0; i < 5+rng.Intn(40); i++ {
			st.Add(
				fmt.Sprintf("urn:n%d", rng.Intn(nNodes)),
				fmt.Sprintf("urn:p%d", rng.Intn(nPreds)),
				fmt.Sprintf("urn:n%d", rng.Intn(nNodes)),
			)
		}
		sn := st.Freeze()
		src := randomQuery(rng, nNodes, nPreds)
		diffColumnarReference(t, sn, src)
	}
}

// randomQuery builds one random query over the urn:n*/urn:p* store
// vocabulary. Shared by the differential test and FuzzExecDifferential.
func randomQuery(rng *rand.Rand, nNodes, nPreds int) string {
	body, _ := randomBody(rng, nNodes, nPreds)
	switch rng.Intn(4) {
	case 0:
		return "ASK { " + body + " }"
	case 1:
		return "SELECT DISTINCT * WHERE { " + body + " }"
	default:
		return "SELECT * WHERE { " + body + " }"
	}
}

// randomBody builds a random group body over the variables ?v0 to
// ?v<nVars-1>: BGPs with repeated variables, OPTIONAL, UNION, MINUS,
// FILTER, EXISTS, VALUES and property paths.
func randomBody(rng *rand.Rand, nNodes, nPreds int) (body string, nVars int) {
	nVars = 1 + rng.Intn(4)
	v := func() string { return fmt.Sprintf("?v%d", rng.Intn(nVars)) }
	node := func() string { return fmt.Sprintf("<urn:n%d>", rng.Intn(nNodes+2)) }
	pred := func() string { return fmt.Sprintf("<urn:p%d>", rng.Intn(nPreds)) }
	term := func() string {
		if rng.Float64() < 0.6 {
			return v()
		}
		return node()
	}
	triple := func() string {
		p := pred()
		if rng.Float64() < 0.15 {
			p = v()
		}
		return term() + " " + p + " " + term()
	}
	var elems []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		elems = append(elems, triple())
	}
	if rng.Float64() < 0.4 {
		elems = append(elems, "OPTIONAL { "+triple()+" }")
	}
	if rng.Float64() < 0.3 {
		elems = append(elems, "{ "+triple()+" } UNION { "+triple()+" }")
	}
	if rng.Float64() < 0.3 {
		elems = append(elems, "MINUS { "+triple()+" }")
	}
	if rng.Float64() < 0.3 {
		elems = append(elems, fmt.Sprintf("FILTER (%s != %s)", v(), node()))
	}
	if rng.Float64() < 0.25 {
		elems = append(elems, fmt.Sprintf("FILTER EXISTS { %s }", triple()))
	}
	if rng.Float64() < 0.3 {
		elems = append(elems, fmt.Sprintf("VALUES %s { %s %s }", v(), node(), node()))
	}
	if rng.Float64() < 0.3 {
		op := "+"
		if rng.Float64() < 0.5 {
			op = "*"
		}
		elems = append(elems, fmt.Sprintf("%s %s%s %s", term(), pred(), op, term()))
	}
	return strings.Join(elems, " . "), nVars
}

// TestColumnarRowLimitParity: the executor must reproduce the
// reference's row-budget errors where they guard real blowups (an
// unbounded path pair enumeration), and its streaming LIMIT is allowed
// to succeed where the reference overflowed — but never to return wrong
// rows.
func TestColumnarRowLimitParity(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 10; i++ {
		st.Add(fmt.Sprintf("urn:x%d", i), "urn:p", fmt.Sprintf("urn:y%d", i))
	}
	sn := st.Freeze()
	q, _ := sparql.Parse(`SELECT ?s ?o WHERE { ?s <urn:p>+ ?o }`)
	if _, err := QueryWithLimits(sn, q, Limits{MaxRows: 3}); err == nil {
		t.Fatal("10 path pairs under MaxRows=3 must error on the columnar path too")
	}
	// Streaming LIMIT succeeds where the reference overflowed:
	// the join result is 2000 rows against a 1500-row budget, but with
	// LIMIT 2 the pull stops after the first batch — the spill-free
	// improvement the pull model buys. (A single row's join fan-out is
	// still atomic, so budgets tighter than one batch behave exactly
	// like the reference, as the path case above pins.)
	st2 := rdf.NewStore()
	for i := 0; i < 50; i++ {
		st2.Add(fmt.Sprintf("urn:s%d", i), "urn:q", "urn:anchor")
		for j := 0; j < 40; j++ {
			st2.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:o%d", j))
		}
	}
	sn2 := st2.Freeze()
	src := `SELECT ?x ?w WHERE { ?x <urn:q> ?y . ?x <urn:p> ?w } LIMIT 2`
	q2, _ := sparql.Parse(src)
	if _, err := queryReference(sn2, q2, Limits{MaxRows: 1500, noReorder: true}); err == nil {
		t.Fatal("the reference should overflow the 1500-row budget on the 2000-row join")
	}
	res, err := QueryWithLimits(sn2, q2, Limits{MaxRows: 1500, noReorder: true})
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("streaming limit under tight budget: rows=%v err=%v", res, err)
	}
}

// TestMinusLazyBehindDeadInput: when the required pattern matches
// nothing, the MINUS body must never evaluate — the reference's group
// short-circuits at the empty intermediate result, so a removal set
// that would overflow the row budget must not turn the empty answer
// into an error on the executor either.
func TestMinusLazyBehindDeadInput(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 50; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:o%d", i))
	}
	sn := st.Freeze()
	q, err := sparql.Parse(`SELECT * WHERE { ?s <urn:nothere> ?o . MINUS { ?a ?b ?c } }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evaluators {
		res, err := ev.run(sn, q, Limits{MaxRows: 10})
		if err != nil {
			t.Fatalf("%s: dead input must skip the overflowing MINUS body: %v", ev.name, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%s: rows = %v, want none", ev.name, res.Rows)
		}
	}
	// With live input the body does evaluate and the budget applies.
	q2, _ := sparql.Parse(`SELECT * WHERE { ?s <urn:p> ?o . MINUS { ?a ?b ?c } }`)
	if _, err := QueryWithLimits(sn, q2, Limits{MaxRows: 10}); err == nil {
		t.Fatal("live input must still hit the MINUS body's row budget")
	}
}

// TestQueryContextCancellation: a cancelled context aborts evaluation
// promptly with an error instead of returning a partial result.
func TestQueryContextCancellation(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:o%d", j))
		}
	}
	sn := st.Freeze()
	// A cross product with 3600^2 intermediate rows: never finishes fast.
	q, err := sparql.Parse(`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:p> ?d . ?e <urn:p> ?f }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, qerr := QueryContext(ctx, sn, q, Limits{MaxRows: 1 << 30})
	if qerr == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}

	// Pre-cancelled context: no work at all.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, qerr := QueryContext(ctx2, sn, q, Limits{MaxRows: 1 << 30}); qerr == nil {
		t.Fatal("pre-cancelled context must error")
	}
}
