package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/exec"
	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// sortedRows canonicalizes a result for order-insensitive comparison
// (SPARQL solution sequences without ORDER BY are unordered; reordering
// a BGP permutes enumeration order but must preserve the multiset).
func sortedRows(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, strings.Join(row, "\x1f"))
	}
	sort.Strings(out)
	return out
}

func diffQueries(t *testing.T, sn *rdf.Snapshot, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	planned, err := QueryWithLimits(sn, q, Limits{})
	if err != nil {
		t.Fatalf("planned eval %q: %v", src, err)
	}
	baseline, err := QueryWithLimits(sn, q, Limits{noReorder: true})
	if err != nil {
		t.Fatalf("baseline eval %q: %v", src, err)
	}
	if planned.Bool != baseline.Bool {
		t.Fatalf("ASK diverges on %q: planned=%v baseline=%v", src, planned.Bool, baseline.Bool)
	}
	if strings.Join(planned.Vars, ",") != strings.Join(baseline.Vars, ",") {
		t.Fatalf("vars diverge on %q: %v vs %v", src, planned.Vars, baseline.Vars)
	}
	a, b := sortedRows(planned), sortedRows(baseline)
	if len(a) != len(b) {
		t.Fatalf("row counts diverge on %q: planned=%d baseline=%d", src, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rows diverge on %q at %d:\nplanned:  %q\nbaseline: %q", src, i, a[i], b[i])
		}
	}
}

// TestReorderDifferentialRandom is the evaluator's differential suite on
// the consistency corpus: random stores, random conjunctive queries in
// random syntactic orders — planner-ordered evaluation must produce the
// same solution multiset as the pre-planner syntactic order.
func TestReorderDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 80; trial++ {
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

		nAtoms := 2 + rng.Intn(3)
		nVars := 1 + rng.Intn(3)
		term := func() string {
			if rng.Float64() < 0.6 {
				return fmt.Sprintf("?v%d", rng.Intn(nVars))
			}
			return fmt.Sprintf("<urn:n%d>", rng.Intn(nNodes+2)) // may be absent
		}
		var triples []string
		for a := 0; a < nAtoms; a++ {
			pred := fmt.Sprintf("<urn:p%d>", rng.Intn(nPreds))
			if rng.Float64() < 0.15 {
				pred = fmt.Sprintf("?v%d", rng.Intn(nVars))
			}
			triples = append(triples, term()+" "+pred+" "+term())
		}
		src := "SELECT * WHERE { " + strings.Join(triples, " . ") + " }"
		diffQueries(t, sn, src)

		ask := "ASK { " + strings.Join(triples, " . ") + " }"
		diffQueries(t, sn, ask)
	}
}

// TestReorderDifferentialOperators checks planner-ordered evaluation
// against the baseline when BGPs are interleaved with the non-commuting
// operators that must keep their positions.
func TestReorderDifferentialOperators(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 12; i++ {
		st.Add(fmt.Sprintf("urn:a%d", i), "urn:knows", fmt.Sprintf("urn:a%d", (i+1)%12))
		if i%2 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:age", fmt.Sprintf("%d", 20+i))
		}
		if i%3 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:name", fmt.Sprintf("n%d", i))
		}
	}
	st.Add("urn:a0", "urn:special", "urn:a5")
	sn := st.Freeze()

	for _, src := range []string{
		// Selective atom written last inside a plain BGP.
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z . ?x <urn:special> ?y }`,
		// OPTIONAL between two BGP runs: each run reorders internally only.
		`SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:age> ?a OPTIONAL { ?y <urn:name> ?n } ?y <urn:knows> ?z . ?x <urn:special> ?y }`,
		// FILTER pulled to the group end, MINUS keeps position.
		`SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:name> ?n FILTER(?n != "n3") MINUS { ?x <urn:age> "26" } }`,
		// UNION branches each reorder their own groups.
		`SELECT * WHERE { { ?x <urn:knows> ?y . ?x <urn:special> ?y } UNION { ?x <urn:age> ?y . ?x <urn:name> ?z } }`,
		// VALUES binds a variable before the BGP.
		`SELECT * WHERE { VALUES ?x { <urn:a0> <urn:a6> } ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		// Absent constant: the dead atom must still kill the group.
		`SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:nothere> ?z }`,
		// Subquery plus outer BGP.
		`SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:age> ?a . ?x <urn:name> ?n } } ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
	} {
		diffQueries(t, sn, src)
	}
}

// TestReorderMovesSelectiveAtomFirst pins the planner's effect: with a
// selective bound-object atom written last, planned evaluation must
// behave identically to the baseline (results) while the explain view
// shows that atom's join pulled first, right after the unit row.
func TestReorderMovesSelectiveAtomFirst(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 50; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:big", fmt.Sprintf("urn:o%d", i%25))
	}
	st.Add("urn:s7", "urn:tag", "urn:gold")
	sn := st.Freeze()
	src := `SELECT * WHERE { ?s <urn:big> ?o . ?s <urn:tag> <urn:gold> }`
	diffQueries(t, sn, src)

	q, _ := sparql.Parse(src)
	text, err := Explain(context.Background(), sn, q)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text, "\n")
	if len(lines) < 4 || !strings.HasSuffix(lines[1], "  unit") ||
		!strings.Contains(lines[2], "join ?s <urn:tag> <urn:gold>") || !strings.Contains(lines[3], "join ?s <urn:big> ?o") {
		t.Fatalf("explain did not pull the selective atom first:\n%s", text)
	}
	if strings.Contains(text, "note:") {
		t.Fatalf("explain carries a disclaimer:\n%s", text)
	}

	// A UNION is part of the tree like any other operator: each branch
	// is a subtree under it, rooted at the seed that replays the input.
	q2, _ := sparql.Parse(`SELECT * WHERE { { ?s <urn:big> ?o } UNION { ?s <urn:tag> ?o } }`)
	text2, err := Explain(context.Background(), sn, q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"  union\n", "      seed\n", "      join ?s <urn:big> ?o", "      join ?s <urn:tag> ?o", "answer: 51 rows"} {
		if !strings.Contains(text2, want) {
			t.Fatalf("union transcript lacks %q:\n%s", want, text2)
		}
	}
}

// TestRunPlanInput pins what a run of triples is planned under.
// A GRAPH name does not count for the runs of the GRAPH's own group:
// "?y <urn:q> ?x" (2 triples) joins before "?g <urn:p> ?x", which a
// bound ?g would make the connected, first atom. It counts for a group
// nested after the GRAPH, here an OPTIONAL's: "?g <urn:p> ?x" joins
// first there. So do the variables of an earlier FILTER's EXISTS body.
func TestRunPlanInput(t *testing.T) {
	st := rdf.NewStore()
	st.Add(DefaultGraph, "urn:p", "urn:x1")
	st.Add(DefaultGraph, "urn:p", "urn:x2")
	for i := 0; i < 4; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:x%d", i))
	}
	st.Add("urn:y1", "urn:q", "urn:x2")
	st.Add("urn:y2", "urn:q", "urn:x1")
	sn := st.Freeze()
	graphRows := [][]string{{"urn:s3", "urn:x1", "urn:y2"}, {"urn:s3", "urn:x2", "urn:y1"}}
	for _, tc := range []struct {
		src   string
		joins []string
		rows  [][]string
	}{
		{`SELECT ?s ?x ?y WHERE { GRAPH ?g { ?s <urn:p> <urn:x3> } ?g <urn:p> ?x . ?y <urn:q> ?x }`,
			[]string{"join ?s <urn:p> <urn:x3>", "join ?y <urn:q> ?x  binds ?y ?x", "join ?g <urn:p> ?x  binds ?g"}, graphRows},
		{`SELECT ?s ?x ?y WHERE { GRAPH ?g { ?s <urn:p> <urn:x3> } OPTIONAL { ?g <urn:p> ?x . ?y <urn:q> ?x } }`,
			[]string{"join ?s <urn:p> <urn:x3>", "join ?g <urn:p> ?x  binds ?x", "join ?y <urn:q> ?x  binds ?y"}, graphRows},
		{`SELECT ?g ?x ?y WHERE { ?s <urn:p> <urn:x3> FILTER EXISTS { ?g <urn:p> ?z } ?g <urn:p> ?x . ?y <urn:q> ?x }`,
			[]string{"join ?s <urn:p> <urn:x3>", "join ?g <urn:p> ?x  binds ?x", "join ?y <urn:q> ?x  binds ?y"},
			[][]string{{DefaultGraph, "urn:x1", "urn:y2"}, {"urn:s1", "urn:x1", "urn:y2"}, {DefaultGraph, "urn:x2", "urn:y1"}, {"urn:s2", "urn:x2", "urn:y1"}}},
	} {
		q, err := sparql.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Query(sn, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, tc.rows) {
			t.Errorf("%s: rows %q, want %q", tc.src, res.Rows, tc.rows)
		}
		text, err := Explain(context.Background(), sn, q)
		if err != nil {
			t.Fatal(err)
		}
		var joins []string
		for _, line := range strings.Split(text, "\n") {
			if i := strings.Index(line, "join "); i >= 0 {
				joins = append(joins, line[i:])
			}
		}
		if !reflect.DeepEqual(joins, tc.joins) {
			t.Errorf("%s: joins %q, want %q:\n%s", tc.src, joins, tc.joins, text)
		}
	}
}

// TestExplainPropertyPath: a path operator's line carries its compiled
// automaton, the evaluation it ran for its input rows, its estimated
// reach, and the rows it emitted.
func TestExplainPropertyPath(t *testing.T) {
	st := rdf.NewStore()
	st.Add("urn:a", "urn:p", "urn:b")
	st.Add("urn:b", "urn:p", "urn:c")
	sn := st.Freeze()
	for src, wants := range map[string][]string{
		`SELECT ?x WHERE { <urn:a> <urn:p>+ ?x }`: {"path <urn:a> <urn:p>+ ?x", "automaton", "fast path",
			"evaluation: forward (subject bound) x1; est reach", "answer: 2 rows"},
		`SELECT ?x WHERE { ?x <urn:p>+ <urn:c> }`: {"evaluation: reverse (object bound) x1", "answer: 2 rows"},
		`SELECT * WHERE { ?x <urn:p>+ ?y }`:       {"evaluation: multi-source sweep (both ends free) x1", "answer: 3 rows"},
		// The path's subject comes from the join before it, and the
		// filter after it is a line of the tree, not a disclaimer.
		`SELECT * WHERE { ?x <urn:p> ?y . ?y <urn:p>* ?z . FILTER(?x != ?z) }`: {"join ?x <urn:p> ?y",
			"path ?y <urn:p>* ?z", "evaluation: forward (subject bound) x2", "filter ?x != ?z", "answer: 3 rows"},
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text, err := Explain(context.Background(), sn, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: transcript lacks %q:\n%s", src, want, text)
			}
		}
	}
}

// TestExplainHonorsDeadline: explain executes the query, so it runs
// under the caller's deadline. The query here is a three-way cross
// product of 3,600 triples (4.7e10 rows, minutes of work); a 20 ms
// deadline must end it with exec.ErrTimeout well inside 2 s.
func TestExplainHonorsDeadline(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:o%d", j))
		}
	}
	sn := st.Freeze()
	q, err := sparql.Parse(`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:p> ?d . ?e <urn:p> ?f }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Explain(ctx, sn, q)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, exec.ErrTimeout) {
			t.Fatalf("explain under a 20ms deadline: err = %v, want %v", err, exec.ErrTimeout)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("explain still running 2s after a 20ms deadline")
	}
}

// BenchmarkEvalJoinOrderSyntactic is the denominator of the root
// package's BenchmarkEvalJoinOrder/planned: the same selective-last
// chain query over the same gMark graph, evaluated in the pre-planner
// syntactic order.
func BenchmarkEvalJoinOrderSyntactic(b *testing.B) {
	g := gmark.Generate(gmark.Config{Nodes: 6000, Seed: 41})
	jname := g.Snapshot.TermOf(g.Nodes[gmark.Journal][1])
	q, err := sparql.Parse(fmt.Sprintf(`PREFIX bib: <http://gmark.bib/p/>
		SELECT ?p1 ?p2 ?r WHERE {
			?p1 bib:cites ?p2 .
			?p2 bib:cites ?p3 .
			?p1 bib:authoredBy ?r .
			?p1 bib:publishedIn <%s> .
		}`, jname))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QueryAnswer(context.Background(), g.Snapshot, q, nil, Limits{noReorder: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBGPCompiledOnce pins that a run of triple patterns is compiled
// once: each of the four prefixed constants is expanded and looked up
// for its join's atom, and the planner orders those atoms. QueryAnswer
// makes 79 allocations here; a pre-pass that built the planner its own
// atoms (expanding every constant again) and name table made 95.
func TestBGPCompiledOnce(t *testing.T) {
	sn := socialStore()
	q, err := sparql.Parse(`PREFIX u: <urn:> SELECT ?x ?z WHERE { ?x u:knows ?y . ?y u:knows ?z . ?x u:tag <urn:gold> . ?z u:age ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	allocs := testing.AllocsPerRun(50, func() {
		res, err := QueryAnswer(context.Background(), sn, q, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Answer.Len()
	})
	if rows != 3 {
		t.Fatalf("%d rows, want 3", rows)
	}
	if allocs > 85 {
		t.Fatalf("QueryAnswer of a 4-triple BGP: %.0f allocations, want at most 85", allocs)
	}
}
