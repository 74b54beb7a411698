package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/lint"
	"sparqlog/internal/rdf"
	"sparqlog/internal/service"
	"sparqlog/internal/sparql"
)

// socialStore is a small graph with holes: not every node has every
// property, so OPTIONAL, MINUS and unbound cells all have work to do.
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

// randomQuery builds one random query over the urn:n*/urn:p* store
// vocabulary, as internal/eval's differential suites do: a BGP with
// optional OPTIONAL, UNION, MINUS, FILTER, FILTER EXISTS, VALUES and
// property-path elements, as ASK, SELECT or SELECT DISTINCT.
func randomQuery(rng *rand.Rand, nNodes, nPreds int) string {
	nVars := 1 + rng.Intn(4)
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
	body := strings.Join(elems, " . ")
	switch rng.Intn(4) {
	case 0:
		return "ASK { " + body + " }"
	case 1:
		return "SELECT DISTINCT * WHERE { " + body + " }"
	default:
		return "SELECT * WHERE { " + body + " }"
	}
}

// served is one pass through the server's cache path.
type served struct {
	ans *exec.Answer
	out service.QueryOutcome
	key string
	hit bool
}

// serveParsed runs q as handleQuery does once the protocol layer is
// done with a request: it takes an evaluation slot, then calls execute,
// the one function that decides the request's cache verdict.
func serveParsed(t *testing.T, s *Server, ctx context.Context, q *sparql.Query) served {
	t.Helper()
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var r served
	r.ans, r.out, r.key, r.hit = s.execute(ctx, request(q))
	return r
}

// request is q as the analyzer hands a served query over.
func request(q *sparql.Query) *core.Request {
	return &core.Request{Query: q, Lint: lint.Run(q), Canon: sparql.QueryString(q)}
}

// serveQuery is serveParsed for query text.
func serveQuery(t *testing.T, s *Server, src string) served {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return serveParsed(t, s, context.Background(), q)
}

// sortedRows renders rows as sorted strings: a multiset comparison for
// answers whose order the query leaves open.
func sortedRows(rows [][]string) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		out = append(out, strings.Join(row, "\x1f"))
	}
	sort.Strings(out)
	return out
}

// diffCachedUncached pins the result cache's correctness contract on
// the path sparqld runs: the answer must be indistinguishable from an
// uncached evaluation, on the filling miss AND on the subsequent hit.
// The hit must be the fill's own answer (same rows in the same order,
// same nil-ness), because the entry retains the answer the fill made.
func diffCachedUncached(t *testing.T, s *Server, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sn := s.ex.Snapshot()
	direct, derr := eval.QueryWithLimits(sn, q, eval.Limits{})
	fill := serveParsed(t, s, context.Background(), q)
	hit := serveParsed(t, s, context.Background(), q)
	if (derr == nil) != (fill.out.Err == nil) || (derr == nil) != (hit.out.Err == nil) {
		t.Fatalf("error divergence on %q: direct=%v fill=%v hit=%v", src, derr, fill.out.Err, hit.out.Err)
	}
	if derr != nil {
		return
	}
	if fill.hit {
		t.Fatalf("first evaluation of %q claims a cache hit", src)
	}
	if !hit.hit {
		t.Fatalf("second evaluation of %q did not hit the cache", src)
	}
	if hit.ans != fill.ans || hit.key != fill.key {
		t.Fatalf("cached hit of %q is not its fill's entry", src)
	}
	if direct.Bool != fill.ans.Bool || strings.Join(direct.Vars, ",") != strings.Join(fill.ans.Vars, ",") {
		t.Fatalf("fill diverges from direct on %q", src)
	}
	// Fill vs independent execution: multiset equality (unordered
	// queries may enumerate differently between runs).
	if a, b := sortedRows(direct.Rows), sortedRows(hit.ans.Rows(sn)); !reflect.DeepEqual(a, b) {
		t.Fatalf("rows diverge on %q:\ndirect %q\ncached %q", src, a, b)
	}
}

// TestCachedDifferentialOperators replays the operator corpus through
// a caching server: DISTINCT, ORDER, slicing, aggregates, paths, ASK —
// everything the canonical cache key must keep distinct.
func TestCachedDifferentialOperators(t *testing.T) {
	s := New(Config{Snapshot: socialStore(), CacheMinCost: -1})
	for _, src := range []string{
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a } }`,
		`SELECT * WHERE { { ?x <urn:age> ?v } UNION { ?x <urn:name> ?v } }`,
		`SELECT * WHERE { ?x <urn:knows> ?y MINUS { ?x <urn:tag> <urn:gold> } }`,
		`SELECT * WHERE { ?x <urn:age> ?a FILTER (?a > 24) }`,
		`SELECT * WHERE { ?x <urn:age> ?a BIND (?a * 2 AS ?d) FILTER (?d > 48) }`,
		`SELECT ?y WHERE { <urn:a0> <urn:knows>+ ?y }`,
		`SELECT DISTINCT ?y WHERE { ?x <urn:knows> ?y . ?z <urn:knows> ?y }`,
		`SELECT ?a WHERE { ?x <urn:age> ?a } ORDER BY DESC(?a) LIMIT 3`,
		`SELECT ?n WHERE { ?x <urn:name> ?n } ORDER BY ?n OFFSET 1 LIMIT 2`,
		`SELECT ?y (COUNT(*) AS ?c) WHERE { ?x <urn:knows> ?y } GROUP BY ?y ORDER BY DESC(?c) ?y`,
		`SELECT ?x (SUM(?a) AS ?s) WHERE { ?x <urn:age> ?a } GROUP BY ?x HAVING (SUM(?a) > 23)`,
		`SELECT (GROUP_CONCAT(?n ; separator=",") AS ?all) WHERE { ?x <urn:name> ?n }`,
		// Expression products live in the entry-local overflow table.
		`SELECT (?a + 1 AS ?b) WHERE { ?x <urn:age> ?a } ORDER BY ?b`,
		// Unbound cells round-trip as unbound.
		`SELECT ?x ?e WHERE { ?x <urn:age> ?a BIND ("" AS ?e) FILTER (!BOUND(?e)) }`,
		// Empty result sets and ASK round-trip faithfully.
		`SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:nothere> ?z }`,
		`ASK { <urn:a0> <urn:knows>/<urn:knows> <urn:a2> }`,
		`ASK { ?x <urn:age> ?a FILTER (?a > 100) }`,
	} {
		diffCachedUncached(t, s, src)
	}
	if s.qc.Hits() == 0 {
		t.Fatal("corpus produced no cache hits")
	}
}

// TestCachedDifferentialRandom is the randomized half over fresh
// stores, one server (and so one cache) per snapshot.
func TestCachedDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
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
		s := New(Config{Snapshot: st.Freeze(), CacheMinCost: -1})
		diffCachedUncached(t, s, randomQuery(rng, nNodes, nPreds))
	}
}

// TestCacheKeyAlphaEquivalence: renaming an unprojected variable and
// respelling a prefix must share one entry; renaming a projected
// variable, and different modifiers, must not.
func TestCacheKeyAlphaEquivalence(t *testing.T) {
	s := New(Config{Snapshot: socialStore(), CacheMinCost: -1})
	serveQuery(t, s, `SELECT ?x WHERE { ?x <urn:age> ?a }`)
	if !serveQuery(t, s, `SELECT ?x WHERE { ?x <urn:age> ?v }`).hit {
		t.Fatal("repeat renaming an unprojected variable missed the cache")
	}
	if serveQuery(t, s, `SELECT ?other WHERE { ?other <urn:age> ?v }`).hit {
		t.Fatal("repeat renaming the projected variable shared the entry of another name")
	}
	if !serveQuery(t, s, `PREFIX u: <urn:> SELECT ?x WHERE { ?x u:age ?a }`).hit {
		t.Fatal("prefix-spelled repeat missed the cache")
	}
	if serveQuery(t, s, `SELECT DISTINCT ?x WHERE { ?x <urn:age> ?a }`).hit {
		t.Fatal("DISTINCT variant shared the non-DISTINCT entry")
	}
	if serveQuery(t, s, `SELECT ?x WHERE { ?x <urn:age> ?a } LIMIT 2`).hit {
		t.Fatal("LIMIT variant shared the unlimited entry")
	}
}

// TestDoNotCacheErrors: row-limit overflows, deadline truncations, and
// SERVICE-recovered results must never become cache entries.
func TestDoNotCacheErrors(t *testing.T) {
	sn := socialStore()
	const all = `SELECT * WHERE { ?s ?p ?o }`

	t.Run("row limit overflow", func(t *testing.T) {
		small := New(Config{Snapshot: sn, CacheMinCost: -1, Limits: eval.Limits{MaxRows: 2}})
		if r := serveQuery(t, small, all); r.out.Err == nil || r.key != "" {
			t.Fatalf("overflow: err %v, key %q; want an error and no entry", r.out.Err, r.key)
		}
		if small.qc.Entries() != 0 {
			t.Fatal("overflowed result was cached")
		}
		// One cache behind two budgets (only a test can wire this): a
		// larger budget must execute, not see a poisoned entry, and the
		// overflowing budget must stay an error after the large-budget
		// success is cached.
		big := New(Config{Snapshot: sn, CacheMinCost: -1, Limits: eval.Limits{MaxRows: 1000}})
		big.qc = small.qc
		if r := serveQuery(t, big, all); r.out.Err != nil || r.hit || r.key == "" {
			t.Fatalf("large-budget run: %v (hit %v, key %q)", r.out.Err, r.hit, r.key)
		}
		if r := serveQuery(t, small, all); r.out.Err == nil || r.hit {
			t.Fatal("small budget answered from the large-budget entry")
		}
	})

	t.Run("expired deadline", func(t *testing.T) {
		// Heavy enough that the evaluator observes the cancellation
		// mid-execution (a tiny query may finish before any cancellation
		// check, which is a success, not a truncation).
		st := rdf.NewStore()
		for i := 0; i < 300; i++ {
			st.Add(fmt.Sprintf("urn:c%d", i), "urn:next", fmt.Sprintf("urn:c%d", (i+1)%300))
		}
		s := New(Config{Snapshot: st.Freeze(), CacheMinCost: -1})
		q, _ := sparql.Parse(`SELECT ?x ?y WHERE { ?x <urn:next>+ ?y }`)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The deadline strikes once execution has begun.
		eval.TestHookExecute = func(*sparql.Query) { cancel() }
		defer func() { eval.TestHookExecute = nil }()
		if r := serveParsed(t, s, ctx, q); !r.out.TimedOut || r.key != "" {
			t.Fatalf("timed out %v, key %q; want a timeout and no entry", r.out.TimedOut, r.key)
		}
		if s.qc.Entries() != 0 {
			t.Fatal("deadline-truncated result was cached")
		}
	})

	t.Run("service recovery", func(t *testing.T) {
		s := New(Config{Snapshot: sn, CacheMinCost: -1})
		const src = `SELECT ?x WHERE { SERVICE SILENT <http://remote/> { ?x <urn:special> ?y } }`
		r := serveQuery(t, s, src)
		if r.out.Err != nil {
			t.Fatal(r.out.Err)
		}
		if r.out.Recovered == 0 {
			t.Skip("SERVICE did not recover; nothing to pin")
		}
		if s.qc.Entries() != 0 || r.key != "" {
			t.Fatal("SERVICE-recovered result was cached")
		}
		if again := serveQuery(t, s, src); again.out.Err != nil || again.hit {
			t.Fatalf("recovered query answered from cache: %v hit=%v", again.out.Err, again.hit)
		}
	})
}

// TestCostAdmissionThroughEval: with a real admission floor, a
// microsecond query is executed every time (admission rejects it),
// never cached.
func TestCostAdmissionThroughEval(t *testing.T) {
	s := New(Config{Snapshot: socialStore(), CacheMinCost: time.Hour})
	for i := 0; i < 3; i++ {
		r := serveQuery(t, s, `SELECT ?x WHERE { ?x <urn:age> ?a } LIMIT 1`)
		if r.out.Err != nil {
			t.Fatal(r.out.Err)
		}
		if r.hit || r.key != "" {
			t.Fatal("below-threshold query was cached")
		}
	}
	if s.qc.Entries() != 0 || s.qc.Rejected() == 0 {
		t.Fatalf("entries=%d rejected=%d, want 0 and >0", s.qc.Entries(), s.qc.Rejected())
	}
}

// TestCacheKeyBytes pins the key's bytes: the row budget eval applies
// (MaxRows 0 resolves to eval.DefaultMaxRows), a bar, the projected
// names in Scope order, a bar, the canonical query text.
func TestCacheKeyBytes(t *testing.T) {
	sn := socialStore()
	for _, tc := range []struct{ src, names string }{
		{`SELECT ?x WHERE { ?x <urn:age> ?a } LIMIT 3`, "x"},
		{`SELECT ?n ?x WHERE { ?x <urn:age> ?a BIND(?a AS ?n) }`, "x n"},
		{`PREFIX u: <urn:> ASK { ?s u:p "lit|with|bars" }`, ""},
	} {
		src := tc.src
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, mr := range []int{0, 1, eval.DefaultMaxRows, 1 << 40} {
			budget := mr
			if budget == 0 {
				budget = eval.DefaultMaxRows
			}
			want := fmt.Sprintf("mr%d|%s|%s", budget, tc.names, sparql.QueryString(q))
			s := New(Config{Snapshot: sn, Limits: eval.Limits{MaxRows: mr}})
			if got := s.cacheKey(request(q)); got != want {
				t.Fatalf("cacheKey = %q, want %q", got, want)
			}
		}
	}
}

// TestCacheFillRetainsAnswer: the cache entry is the executor's answer.
// A fill hands the cache the pointer the evaluation produced — nothing
// is converted — under the key execute reports, and a hit returns that
// same pointer.
func TestCacheFillRetainsAnswer(t *testing.T) {
	s := New(Config{Snapshot: socialStore(), CacheMinCost: -1})
	q, err := sparql.Parse(`SELECT ?x ?y WHERE { ?x <urn:knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	fill := serveParsed(t, s, context.Background(), q)
	if fill.out.Err != nil || fill.hit || fill.key != s.cacheKey(request(q)) {
		t.Fatalf("fill: %+v", fill)
	}
	held, ok := s.qc.Get(s.ex.Snapshot(), fill.key)
	if !ok || held.Answer != fill.ans {
		t.Fatal("the entry is not the answer the evaluation produced")
	}
	hit := serveParsed(t, s, context.Background(), q)
	if hit.out.Err != nil || !hit.hit || hit.ans != fill.ans || hit.key != fill.key {
		t.Fatalf("hit does not share the fill's answer: %+v", hit)
	}
}
