package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// sameAsQueryContext requires QueryAnswer + Answer.Rows to be
// QueryContext: same projection, same ASK answer, the same rows in the
// same order with the same nil-ness — and QueryAnswer itself to have
// materialized nothing.
func sameAsQueryContext(t *testing.T, sn *rdf.Snapshot, src string, lim Limits) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	full, ferr := QueryContext(context.Background(), sn, q, lim)
	ans, aerr := QueryAnswer(context.Background(), sn, q, lim)
	if (ferr == nil) != (aerr == nil) {
		t.Fatalf("error divergence on %q: QueryContext=%v QueryAnswer=%v", src, ferr, aerr)
	}
	if ferr != nil {
		return
	}
	if ans.Rows != nil || ans.Answer == nil {
		t.Fatalf("QueryAnswer(%q): Rows=%v Answer=%v, want no rows and an answer", src, ans.Rows, ans.Answer)
	}
	if !reflect.DeepEqual(ans.Vars, full.Vars) || !reflect.DeepEqual(ans.Answer.Vars, full.Vars) || ans.Bool != full.Bool || ans.Answer.Bool != full.Bool {
		t.Fatalf("head diverges on %q: %v/%v vs %v/%v", src, ans.Vars, ans.Bool, full.Vars, full.Bool)
	}
	if rows := ans.Answer.Rows(sn); !reflect.DeepEqual(rows, full.Rows) {
		t.Fatalf("rows diverge on %q:\nQueryAnswer+Rows %#v\nQueryContext     %#v", src, rows, full.Rows)
	}
	if ans.Answer.Len() != len(full.Rows) {
		t.Fatalf("Len = %d, %d rows on %q", ans.Answer.Len(), len(full.Rows), src)
	}
}

// TestQueryAnswerIsQueryContext runs the differential suites' corpora —
// the operator families, the random BGP/modifier generator, the random
// aggregate generator, graph forms — through both entry points.
func TestQueryAnswerIsQueryContext(t *testing.T) {
	sn := socialStore()
	for _, src := range []string{
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z }`,
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:age> ?a } }`,
		`SELECT ?x ?nope WHERE { ?x <urn:age> ?a }`,
		`SELECT * WHERE { ?x <urn:nothere> ?y }`,
		`SELECT ?x WHERE { ?x <urn:age> ?a } LIMIT 0`,
		`SELECT * WHERE { ?x <urn:age> ?a } LIMIT 0`,
		`SELECT * WHERE { ?x <urn:age> ?a } OFFSET 100`,
		`SELECT DISTINCT * WHERE { ?x <urn:knows> ?y } OFFSET 2 LIMIT 5`,
		`SELECT DISTINCT (STRLEN(?n) AS ?l) WHERE { ?x <urn:name> ?n }`,
		`SELECT ?x (?a * 2 AS ?d) (?missing AS ?m) WHERE { ?x <urn:age> ?a } ORDER BY DESC(?d)`,
		`SELECT ?x (?a AS ?x2) WHERE { ?x <urn:age> ?a BIND("" AS ?e) }`,
		`SELECT ?y (COUNT(*) AS ?c) WHERE { ?x <urn:knows> ?y } GROUP BY ?y ORDER BY DESC(?c) ?y`,
		`SELECT ?x (SUM(?a) + 1 AS ?s) (SAMPLE(?n) AS ?sn) WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } } GROUP BY ?x HAVING (SUM(?a) > 21)`,
		`SELECT (GROUP_CONCAT(?n ; separator=",") AS ?all) (MIN(?nothing) AS ?m) WHERE { ?x <urn:name> ?n }`,
		`SELECT (COUNT(?x + 1) AS ?c) WHERE { ?x <urn:age> ?a }`,
		`SELECT * WHERE { ?x <urn:knows> ?y { SELECT ?y (COUNT(*) AS ?c) (CONCAT("k", ?y) AS ?tag) WHERE { ?y <urn:knows> ?z } GROUP BY ?y } }`,
		`SELECT ?y WHERE { <urn:a0> <urn:knows>+ ?y }`,
		`ASK { <urn:a0> <urn:knows>/<urn:knows> <urn:a2> }`,
		`ASK { <urn:a0> <urn:nothere> ?x }`,
		`DESCRIBE <urn:a0> <urn:loop>`,
		`DESCRIBE ?x WHERE { ?x <urn:tag> <urn:gold> } LIMIT 4 OFFSET 1`,
		`DESCRIBE <urn:unknown>`,
		`CONSTRUCT { ?y <urn:knownBy> ?x . ?x <urn:is> "known" } WHERE { ?x <urn:knows> ?y } LIMIT 7`,
	} {
		sameAsQueryContext(t, sn, src, Limits{})
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 150; trial++ {
		st := rdf.NewStore()
		nNodes, nPreds := 4+rng.Intn(10), 1+rng.Intn(3)
		for i := 0; i < 5+rng.Intn(40); i++ {
			st.Add(fmt.Sprintf("urn:n%d", rng.Intn(nNodes)), fmt.Sprintf("urn:p%d", rng.Intn(nPreds)), fmt.Sprintf("urn:n%d", rng.Intn(nNodes)))
		}
		sameAsQueryContext(t, st.Freeze(), randomQuery(rng, nNodes, nPreds), Limits{})
	}
	agg := aggStore()
	for trial := 0; trial < 150; trial++ {
		sameAsQueryContext(t, agg, randomAggQuery(rng), Limits{})
	}
}

// TestCacheKeyBytes pins the key's bytes to the form the cache was
// first keyed with, so rebuilding it without fmt moved no entry.
func TestCacheKeyBytes(t *testing.T) {
	for _, src := range []string{
		`SELECT ?x WHERE { ?x <urn:age> ?a } LIMIT 3`,
		`PREFIX u: <urn:> ASK { ?s u:p "lit|with|bars" }`,
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, mr := range []int{0, 1, DefaultMaxRows, 1 << 40} {
			want := fmt.Sprintf("mr%d|%s", mr, sparql.QueryString(q))
			if got := cacheKey(q, Limits{MaxRows: mr}); got != want {
				t.Fatalf("cacheKey = %q, want %q", got, want)
			}
		}
	}
}

// TestCacheFillRetainsAnswer: the cache entry is the executor's answer.
// A fill of a plain-variable SELECT hands the cache the pointer the
// evaluation produced — nothing is converted, so not one dictionary
// lookup is made for the fill (the evaluation itself materialized no
// text either: TestJoinDistinctStaysAsIDs) — and a hit returns that
// same pointer.
func TestCacheFillRetainsAnswer(t *testing.T) {
	sn := socialStore()
	qc := qcache.New(sn, qcache.Options{MinCost: -1})
	q, err := sparql.Parse(`SELECT ?x ?y WHERE { ?x <urn:knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	lim := Limits{Results: qc}
	fill, err := QueryAnswer(context.Background(), sn, q, lim)
	if err != nil || fill.Cached || fill.CacheKey == "" {
		t.Fatalf("fill: %+v, %v", fill, err)
	}
	held, ok := qc.Get(sn, fill.CacheKey)
	if !ok || held.Answer != fill.Answer {
		t.Fatal("the entry is not the answer the evaluation produced")
	}
	hit, err := QueryAnswer(context.Background(), sn, q, lim)
	if err != nil || !hit.Cached || hit.Answer != fill.Answer || hit.Rows != nil {
		t.Fatalf("hit does not share the fill's answer: %+v, %v", hit, err)
	}
}

// TestLeaderPanicFreesFollowers: a panic in the flight leader's
// execution must resolve the flight (unshareable) on its way up, so a
// follower of the same key runs the query itself at once instead of
// waiting out its deadline on a leader that will never complete.
func TestLeaderPanicFreesFollowers(t *testing.T) {
	sn := socialStore()
	qc := qcache.New(sn, qcache.Options{MinCost: -1})
	q, err := sparql.Parse(`SELECT ?x ?y WHERE { ?x <urn:knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	lim := Limits{Results: qc}
	leaderIn, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	TestHookExecute = func(*sparql.Query) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-release
			panic("injected executor panic")
		}
	}
	defer func() { TestHookExecute = nil }()

	var wg sync.WaitGroup
	wg.Add(2)
	var leaderPanic any
	go func() {
		defer wg.Done()
		defer func() { leaderPanic = recover() }()
		_, _ = QueryAnswer(context.Background(), sn, q, lim)
	}()
	<-leaderIn
	var followerRes *Result
	var followerErr error
	var took time.Duration
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		followerRes, followerErr = QueryAnswer(ctx, sn, q, lim)
		took = time.Since(start)
	}()
	// Let the follower reach the flight (it cannot get past it while the
	// leader is held), then let the leader panic.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if leaderPanic == nil {
		t.Fatal("the injected panic did not propagate to the leader's caller")
	}
	if followerErr != nil || followerRes == nil || followerRes.Answer.Len() == 0 {
		t.Fatalf("follower: %+v, %v", followerRes, followerErr)
	}
	if followerRes.Cached || followerRes.Collapsed {
		t.Fatalf("follower did not execute itself: %+v", followerRes)
	}
	if took > 2*time.Second {
		t.Fatalf("follower waited %v: stranded on the dead leader's flight", took)
	}
	// The key is not wedged: the next request leads a fresh flight.
	if res, err := QueryAnswer(context.Background(), sn, q, lim); err != nil || res.Answer.Len() == 0 {
		t.Fatalf("after the panic: %+v, %v", res, err)
	}
}
