package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sparqlog/internal/core"
)

// replayStream is a request stream with everything the analyzer tells
// apart: exact repeats, alpha-equivalent and prefix-expanded respellings
// (one class under structural dedup), malformed text with and without a
// repeat, keyword-free noise, every query form, subqueries, an equality
// filter that changes the canonical graph, and queries the linter flags.
func replayStream() []string {
	const bib = "PREFIX bib: <http://gmark.bib/p/>\n"
	base := []string{
		selectQuery,
		askQuery,
		bib + `SELECT ?a ?b WHERE { ?a bib:cites ?b } LIMIT 5`,            // alpha-equivalent to selectQuery
		`SELECT ?x ?y WHERE { ?x <http://gmark.bib/p/cites> ?y } LIMIT 5`, // prefix-expanded
		bib + `SELECT ?p ?j WHERE { ?p bib:publishedIn ?j . ?p bib:authoredBy ?a } LIMIT 3`,
		bib + `SELECT DISTINCT ?a WHERE { ?p bib:authoredBy ?a OPTIONAL { ?p bib:cites ?q } } LIMIT 4`,
		bib + `SELECT ?x WHERE { { ?x bib:cites ?y } UNION { ?y bib:cites ?x } } LIMIT 2`,
		bib + `SELECT ?p WHERE { ?p bib:cites ?q . { SELECT ?q WHERE { ?q bib:publishedIn ?j } LIMIT 3 } }`,
		bib + `SELECT ?j (COUNT(?p) AS ?n) WHERE { ?p bib:publishedIn ?j } GROUP BY ?j ORDER BY DESC(?n) LIMIT 3`,
		bib + `SELECT ?a ?d WHERE { ?a bib:cites ?b . ?c bib:cites ?d FILTER(?b = ?c) } LIMIT 3`, // SQL007, collapsed graph
		bib + `SELECT ?x WHERE { ?x bib:cites+ ?y } LIMIT 2`,
		`DESCRIBE <http://gmark.bib/paper/3>`,
		bib + `DESCRIBE ?p WHERE { ?p bib:cites <http://gmark.bib/paper/1> }`,
		bib + `CONSTRUCT { ?y bib:citedBy ?x } WHERE { ?x bib:cites ?y } LIMIT 3`,
		`SELECT * WHERE { ?s ?p ?o . FILTER(false) }`,                                            // SQL001, statically empty
		bib + `SELECT * WHERE { ?a bib:cites ?b . ?c bib:publishedIn ?d } LIMIT 2`,               // SQL002
		`SELECT ?x ?gone WHERE { ?x ?p ?o . FILTER(?x != ?x) }`,                                  // SQL001, SQL004
		bib + `SELECT ?x WHERE { ?x bib:cites ?y } ORDER BY ?nothing LIMIT 2`,                    // SQL008
		bib + `SELECT * WHERE { ?x bib:cites ?y OPTIONAL { ?z bib:cites ?y } ?z ?q ?r } LIMIT 1`, // SQL005
		`SELECT ?x WHERE { broken`,
		`ASK { ?x`,
		`GET /resource/Paris HTTP/1.1`,
		`no keyword in this entry at all`,
		`ſelect is a keyword only after upper-casing`,
	}
	// Two more passes over a rotated base give every entry repeats at a
	// distance, so a duplicate meets each kind of entry in between.
	stream := append([]string(nil), base...)
	for pass := 1; pass <= 2; pass++ {
		for i := range base {
			stream = append(stream, base[(i*7+pass)%len(base)])
		}
	}
	return stream
}

// serve pushes one query text through the handler, alternating the
// three protocol forms, and returns the status.
func serve(h http.Handler, i int, q string) int {
	var req *http.Request
	switch i % 3 {
	case 0:
		req = httptest.NewRequest("GET", "/query?query="+url.QueryEscape(q), nil)
	case 1:
		req = httptest.NewRequest("POST", "/query", strings.NewReader(url.Values{"query": {q}}.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	default:
		req = httptest.NewRequest("POST", "/query", strings.NewReader(q))
		req.Header.Set("Content-Type", "application/sparql-query")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestReplayMatchesBatchWholeReport is the live ≡ batch guard on the
// serving path, over the whole report and not three counters: the
// handler parses and lints each request once and hands the analyzer the
// AST, and what the analyzer then reports must be what the batch
// pipeline computes from the request texts alone, in every dedup mode.
func TestReplayMatchesBatchWholeReport(t *testing.T) {
	stream := replayStream()
	sn := testSnapshot(t, 600)
	for name, opts := range map[string]core.Options{
		"exact":           {},
		"structural":      {StructuralDedup: true},
		"keep-duplicates": {KeepDuplicates: true},
	} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Snapshot: sn, Analyzer: opts})
			h := s.Handler()
			var ok, bad int
			for i, q := range stream {
				switch code := serve(h, i, q); code {
				case http.StatusOK:
					ok++
				case http.StatusBadRequest:
					bad++
				default:
					t.Fatalf("request %d (%q): status %d", i, q, code)
				}
			}
			opts.Lint = true // the endpoint always lints its workload
			want := core.AnalyzeLog("sparqld", stream, opts)
			got := s.Analyzer().Report()
			if !reflect.DeepEqual(want, got) {
				w, g := reflect.ValueOf(*want), reflect.ValueOf(*got)
				for i := 0; i < w.NumField(); i++ {
					if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
						t.Errorf("field %s: batch %+v, live %+v",
							w.Type().Field(i).Name, w.Field(i).Interface(), g.Field(i).Interface())
					}
				}
			}
			// The stream must have exercised what it claims to.
			if ok != want.Valid || bad != len(stream)-want.Valid {
				t.Errorf("served %d, refused %d; the batch pipeline finds %d valid of %d", ok, bad, want.Valid, len(stream))
			}
			if want.NoiseRemoved == 0 || want.Total == want.Valid || len(want.Lint) < 5 || want.LintEmpty == 0 ||
				want.Subqueries == 0 || want.Keywords["Describe"] == 0 || want.Keywords["Construct"] == 0 {
				t.Errorf("stream is not mixed enough: %+v", want)
			}
			if !opts.KeepDuplicates && want.Unique == want.Valid {
				t.Errorf("stream has no repeats: valid %d, unique %d", want.Valid, want.Unique)
			}
		})
	}
}

// TestStructuralSharedASTUnderLoad runs under -race in CI: with
// -dedup structural the analyzer retains the request's own AST as its
// class representative while the executor evaluates that same AST, and
// /stats re-analyzes the representatives on every scrape. Eight clients
// re-issue alpha-equivalent queries (one class, many candidate
// representatives) against back-to-back scrapes.
func TestStructuralSharedASTUnderLoad(t *testing.T) {
	const clients, rounds = 8, 25
	_, ts := newTestServer(t, Config{
		Analyzer:    core.Options{StructuralDedup: true},
		CacheBytes:  -1, // every request executes its AST
		MaxInFlight: clients,
	})
	get := func(path string) (int, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	templates := []string{
		"PREFIX bib: <http://gmark.bib/p/>\nSELECT ?%[1]s ?%[2]s WHERE { ?%[1]s bib:cites ?%[2]s . ?%[2]s bib:publishedIn ?j FILTER(?%[1]s != ?%[2]s) } LIMIT 5",
		"PREFIX bib: <http://gmark.bib/p/>\nSELECT ?%[1]s WHERE { ?%[1]s bib:cites ?%[2]s OPTIONAL { ?%[2]s bib:cites ?%[1]s } } LIMIT 5",
		"PREFIX bib: <http://gmark.bib/p/>\nDESCRIBE ?%[1]s WHERE { ?%[1]s bib:cites ?%[2]s } LIMIT 5",
		"PREFIX bib: <http://gmark.bib/p/>\nSELECT ?%[1]s WHERE { ?%[1]s bib:cites+ ?%[2]s } LIMIT 5",
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Same structure, this client's own variable names.
				q := fmt.Sprintf(templates[(c+r)%len(templates)], fmt.Sprintf("a%d", c), fmt.Sprintf("b%d", c))
				if code, err := get("/query?query=" + url.QueryEscape(q)); err != nil || code != http.StatusOK {
					t.Errorf("client %d round %d: status %d, err %v", c, r, code, err)
					return
				}
			}
		}()
	}
	scraper := make(chan struct{})
	go func() {
		defer close(scraper)
		for {
			if code, err := get("/stats"); err != nil || code != http.StatusOK {
				t.Errorf("/stats: status %d, err %v", code, err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-scraper
}
