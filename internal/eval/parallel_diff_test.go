package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// This file pins the both-ends-free compiled-path sweep inside whole
// queries: the sweeps, the operator corpus and random queries against
// the reference evaluator, row budgets at the edge of the answer, and a
// prompt abort under a deadline. The TestParallel names are historical:
// they once compared path-sweep worker budgets; a query now runs on the
// goroutine that asked for it.

// sweepStore gives a both-ends-free path thousands of subjects to
// sweep: 600 four-node chains over urn:next, a urn:side edge off every
// chain head, and one cycle so the closure has a multi-member component.
func sweepStore() *rdf.Snapshot {
	st := rdf.NewStore()
	for c := 0; c < 600; c++ {
		for i := 0; i < 3; i++ {
			st.Add(fmt.Sprintf("urn:c%d_%d", c, i), "urn:next", fmt.Sprintf("urn:c%d_%d", c, i+1))
		}
		st.Add(fmt.Sprintf("urn:c%d_0", c), "urn:side", fmt.Sprintf("urn:c%d_2", (c*7+1)%600))
	}
	st.Add("urn:c5_3", "urn:next", "urn:c5_0")
	return st.Freeze()
}

// sweepQueries are the both-ends-free path queries: the closure fast
// path, the general automaton, and a sweep cut by a streaming LIMIT.
var sweepQueries = []string{
	`SELECT ?x ?y WHERE { ?x <urn:next>+ ?y }`,
	`SELECT ?x ?y WHERE { ?x (<urn:side>/<urn:next>*) ?y }`,
	`SELECT ?x ?y WHERE { ?x <urn:next>* ?y } OFFSET 700 LIMIT 50`,
}

// TestParallelDifferentialOperators runs the path sweeps and a join-
// heavy operator corpus through the columnar executor and the
// reference evaluator.
func TestParallelDifferentialOperators(t *testing.T) {
	big := sweepStore()
	for _, src := range sweepQueries {
		diffColumnarReference(t, big, src)
	}
	sn := socialStore()
	for _, src := range []string{
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z . ?z <urn:knows> ?w }`,
		`SELECT * WHERE { ?x <urn:knows> ?x . ?x <urn:knows> ?y }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:nothere> ?z }`,
		`SELECT * WHERE { ?s ?p ?o . ?o ?q ?r }`,
		`SELECT * WHERE { ?x <urn:knows> ?y FILTER (?y != <urn:a3>) ?y <urn:knows> ?z }`,
		`SELECT * WHERE { ?x <urn:age> ?a . ?x <urn:knows> ?y FILTER (?a > 22) }`,
		// Paths with a bound end: one search per input row, never a sweep.
		`SELECT * WHERE { ?x <urn:tag> <urn:gold> . ?x (<urn:knows>|<urn:special>)+ ?y }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows>+ ?z }`,
		`SELECT ?x ?y WHERE { ?x <urn:knows>+ ?y . ?y <urn:tag> <urn:gold> }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z OPTIONAL { ?z <urn:age> ?a } }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z MINUS { ?z <urn:tag> <urn:gold> } }`,
		`SELECT * WHERE { { ?x <urn:knows> ?y . ?y <urn:knows> ?z } UNION { ?x <urn:special> ?z } }`,
		`SELECT ?z WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z FILTER EXISTS { ?z <urn:age> ?a } }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z BIND (CONCAT(STR(?x), "-") AS ?k) }`,
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z VALUES ?x { <urn:a2> <urn:a7> } }`,
		`SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:tag> <urn:gold> } } ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		`SELECT ?g ?x ?y WHERE { GRAPH ?g { ?x <urn:knows> ?y . ?y <urn:knows> ?z } }`,
		// Streaming DISTINCT, LIMIT early exit.
		`SELECT DISTINCT ?y WHERE { ?x <urn:knows> ?y . ?z <urn:knows> ?y }`,
		`SELECT DISTINCT ?z WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z } LIMIT 3`,
		`SELECT ?z WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z } LIMIT 4`,
		`SELECT ?z WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z } OFFSET 5 LIMIT 5`,
		// Modifiers that materialize: ORDER BY, aggregation.
		`SELECT ?z WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z } ORDER BY ?z LIMIT 3`,
		`SELECT ?y (COUNT(*) AS ?c) WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z } GROUP BY ?y ORDER BY DESC(?c) ?y`,
		`SELECT (COUNT(*) AS ?c) WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		// ASK stops at the first row.
		`ASK { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		`ASK { ?x <urn:nothere> ?y . ?y <urn:knows> ?z }`,
		`CONSTRUCT { ?z <urn:knownBy2> ?x } WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
	} {
		diffColumnarReference(t, sn, src)
	}
}

// TestParallelDifferentialRandom is the randomized half: random small
// graphs and queries from the columnar/reference differential's
// generator, through both evaluators.
func TestParallelDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	for trial := 0; trial < 120; trial++ {
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
		diffColumnarReference(t, sn, randomQuery(rng, nNodes, nPreds))
	}
}

// parallelChainStore is a bipartite fan (s_i -p-> m_j -q-> o_k).
func parallelChainStore(fan int) *rdf.Snapshot {
	st := rdf.NewStore()
	for i := 0; i < fan; i++ {
		for j := 0; j < 8; j++ {
			st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:m%d", (i+j)%fan))
			st.Add(fmt.Sprintf("urn:m%d", i), "urn:q", fmt.Sprintf("urn:o%d", (i*7+j)%16))
		}
	}
	return st.Freeze()
}

// TestParallelRowLimitParity: MaxRows trips exactly when the answer
// exceeds it, for a join pipeline and for a path sweep (whose
// enumeration stops one pair past the budget); a run that fits returns
// the unlimited run's rows, in order; and a streaming LIMIT under a
// tight budget keeps succeeding.
func TestParallelRowLimitParity(t *testing.T) {
	for _, tc := range []struct {
		sn  *rdf.Snapshot
		src string
	}{
		{parallelChainStore(40), `SELECT * WHERE { ?s <urn:p> ?m . ?m <urn:q> ?o }`},
		{sweepStore(), sweepQueries[0]},
	} {
		q, _ := sparql.Parse(tc.src)
		full, err := QueryWithLimits(tc.sn, q, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		total := len(full.Rows)
		for _, maxRows := range []int{total / 3, total - 1, total, total + 1} {
			res, err := QueryWithLimits(tc.sn, q, Limits{MaxRows: maxRows})
			if want := maxRows < total; (err != nil) != want {
				t.Fatalf("%s: MaxRows=%d of %d: err=%v", tc.src, maxRows, total, err)
			}
			if err == nil && !reflect.DeepEqual(res.Rows, full.Rows) {
				t.Fatalf("%s: MaxRows=%d: rows differ from the unlimited run", tc.src, maxRows)
			}
		}
		// The early exit stops the pull before the budget would fill.
		q2, _ := sparql.Parse(tc.src + ` LIMIT 2`)
		res, err := QueryWithLimits(tc.sn, q2, Limits{MaxRows: total + 1})
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("%s: streaming limit rows=%d err=%v", tc.src, len(res.Rows), err)
		}
	}
}

// TestParallelCancellationPrompt: a deadline striking mid-query aborts
// a three-way cross product promptly, and a pre-cancelled context
// errors before any work (a hang here fails the test by timeout).
func TestParallelCancellationPrompt(t *testing.T) {
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
	start := time.Now()
	_, qerr := QueryContext(ctx, sn, q, Limits{MaxRows: 1 << 30})
	if qerr == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, qerr := QueryContext(ctx2, sn, q, Limits{MaxRows: 1 << 30}); qerr == nil {
		t.Fatal("pre-cancelled context must error")
	}
}
