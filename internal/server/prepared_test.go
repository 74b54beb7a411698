package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sparqlog/internal/lint"
	"sparqlog/internal/sparql"
)

// preparedQueries cover the AST shapes a prepared repeat shares across
// requests: aggregates, subqueries, OPTIONAL, VALUES, EXISTS, BIND,
// property paths, every query form, and queries the linter flags (one
// statically empty).
var preparedQueries = func() []string {
	const bib = "PREFIX bib: <http://gmark.bib/p/>\n"
	return []string{
		bib + `SELECT ?j (COUNT(?p) AS ?n) WHERE { ?p bib:publishedIn ?j } GROUP BY ?j HAVING (COUNT(?p) > 1) ORDER BY DESC(?n) ?j LIMIT 3`,
		bib + `SELECT ?p WHERE { ?p bib:cites ?q . { SELECT ?q WHERE { ?q bib:publishedIn ?j } LIMIT 3 } }`,
		bib + `SELECT ?p ?c WHERE { ?p bib:authoredBy ?a OPTIONAL { ?p bib:cites ?c } } LIMIT 6`,
		bib + `SELECT ?p ?q WHERE { VALUES ?p { <http://gmark.bib/paper/1> <http://gmark.bib/paper/2> } ?p bib:cites ?q }`,
		bib + `SELECT ?p WHERE { ?p bib:authoredBy ?a FILTER NOT EXISTS { ?p bib:cites ?q } } LIMIT 4`,
		bib + `SELECT ?p ?k WHERE { ?p bib:cites ?q BIND(STR(?q) AS ?k) } LIMIT 3`,
		bib + `SELECT ?x ?y WHERE { ?x bib:cites/bib:publishedIn ?y } LIMIT 4`,
		bib + `SELECT ?x WHERE { ?x bib:cites+ <http://gmark.bib/paper/3> } LIMIT 4`,
		bib + `ASK { ?x bib:cites ?x }`,
		`DESCRIBE <http://gmark.bib/paper/3>`,
		bib + `CONSTRUCT { ?y bib:citedBy ?x } WHERE { ?x bib:cites ?y } LIMIT 3`,
		`SELECT ?x ?gone WHERE { ?x ?p ?o . FILTER(?x != ?x) }`,                    // SQL001, SQL004, statically empty
		bib + `SELECT * WHERE { ?a bib:cites ?b . ?c bib:publishedIn ?d } LIMIT 2`, // SQL002
	}
}()

// preparedResponse is what a request's answer must not depend on:
// whether its text was prepared, or served concurrently.
type preparedResponse struct {
	status      int
	lint, cType string
	body        string
}

func servePrepared(h http.Handler, query, accept string) preparedResponse {
	req := httptest.NewRequest("GET", "/query?query="+url.QueryEscape(query), nil)
	req.Header.Set("Accept", accept)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return preparedResponse{rec.Code, rec.Header().Get("X-Sparqld-Lint"), rec.Header().Get("Content-Type"), rec.Body.String()}
}

// TestPreparedRepeatsShareSafely serves repeats of every query in every
// format from eight clients at once (under -race in CI): each response
// is the one a fresh server gives the text's first sighting, the
// repeats are served prepared Requests, and serving leaves each shared
// Request as parsing and linting its text makes it — eval, lint and the
// cache key never write to the AST.
func TestPreparedRepeatsShareSafely(t *testing.T) {
	sn := testSnapshot(t, 600)
	fresh := New(Config{Snapshot: sn}).Handler()
	want := map[[2]string]preparedResponse{}
	for _, q := range preparedQueries {
		for _, ct := range []string{ctJSON, ctXML, ctCSV, ctTSV} {
			r := servePrepared(fresh, q, ct)
			if r.status != http.StatusOK {
				t.Fatalf("status %d for %s", r.status, q)
			}
			want[[2]string{q, ct}] = r
		}
	}
	const clients, rounds = 8, 4
	s := New(Config{Snapshot: sn, MaxInFlight: clients, QueueDepth: clients})
	h := s.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := len(preparedQueries)
			for i := 0; i < rounds*n*4; i++ {
				k := c + i*5
				q, ct := preparedQueries[k%n], []string{ctJSON, ctXML, ctCSV, ctTSV}[(k/n)%4]
				if got := servePrepared(h, q, ct); got != want[[2]string{q, ct}] {
					t.Errorf("client %d: %s as %s: got %+v, want %+v", c, q, ct, got, want[[2]string{q, ct}])
					return
				}
			}
		}()
	}
	wg.Wait()
	served, bytes := s.Analyzer().Prepared()
	if min := uint64(clients*rounds*len(preparedQueries)*4) / 2; served < min || bytes == 0 {
		t.Fatalf("%d repeats served prepared (%d B), want at least %d", served, bytes, min)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range []string{fmt.Sprintf("sparqld_prepared_requests_total %d\n", served), fmt.Sprintf("sparqld_prepared_bytes %d\n", bytes)} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	for _, q := range preparedQueries {
		r, err := s.Analyzer().AddRequest(q)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := s.Analyzer().AddRequest(q); again != r {
			t.Fatalf("%s: not prepared", q)
		}
		fq, err := sparql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		canon := sparql.QueryString(fq)
		if got := sparql.QueryString(r.Query); got != canon || r.Canon != canon {
			t.Errorf("%s: shared query now reads %q (canon %q), want %q", q, got, r.Canon, canon)
		}
		if !reflect.DeepEqual(r.Lint, lint.Run(r.Query)) || !reflect.DeepEqual(r.Lint.Diagnostics, lint.Run(fq).Diagnostics) {
			t.Errorf("%s: shared lint result changed", q)
		}
	}
}
