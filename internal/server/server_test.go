package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/repro"
)

const selectQuery = `PREFIX bib: <http://gmark.bib/p/>
SELECT ?x ?y WHERE { ?x bib:cites ?y } LIMIT 5`

const askQuery = `PREFIX bib: <http://gmark.bib/p/>
ASK { ?x bib:cites ?y }`

func testSnapshot(t testing.TB, nodes int) *rdf.Snapshot {
	t.Helper()
	return gmark.Generate(gmark.Config{Nodes: nodes, Seed: 17}).Snapshot
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Snapshot == nil {
		cfg.Snapshot = testSnapshot(t, 600)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// decodeJSONRows pulls the bindings out of a JSON results document.
func decodeJSONRows(t *testing.T, body []byte) (vars []string, bindings []map[string]map[string]string) {
	t.Helper()
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad JSON results: %v\n%s", err, body)
	}
	return doc.Head.Vars, doc.Results.Bindings
}

// TestProtocolConformance is the table-driven SPARQL 1.1 Protocol
// suite: the three request forms, content negotiation with fallbacks,
// and the error mapping.
func TestProtocolConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQueryBytes: 4096})

	get := func(q, accept string) *http.Request {
		req, _ := http.NewRequest("GET", ts.URL+"/query?query="+url.QueryEscape(q), nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		return req
	}
	postForm := func(q string) *http.Request {
		form := url.Values{"query": {q}}.Encode()
		req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(form))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		return req
	}
	postDirect := func(q string) *http.Request {
		req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(q))
		req.Header.Set("Content-Type", "application/sparql-query")
		return req
	}

	tests := []struct {
		name       string
		req        *http.Request
		wantStatus int
		wantCT     string // content-type prefix
		wantAllow  string // the Allow header; only a 405 sends one
	}{
		{"GET query param", get(selectQuery, ""), 200, ctJSON, ""},
		{"POST urlencoded form", postForm(selectQuery), 200, ctJSON, ""},
		{"POST sparql-query body", postDirect(selectQuery), 200, ctJSON, ""},
		{"accept JSON", get(selectQuery, ctJSON), 200, ctJSON, ""},
		{"accept XML", get(selectQuery, ctXML), 200, ctXML, ""},
		{"accept generic XML", get(selectQuery, "application/xml"), 200, ctXML, ""},
		{"accept CSV", get(selectQuery, ctCSV), 200, ctCSV, ""},
		{"accept TSV", get(selectQuery, ctTSV), 200, ctTSV, ""},
		{"accept wildcard", get(selectQuery, "*/*"), 200, ctJSON, ""},
		{"accept weighted", get(selectQuery, "text/csv;q=0.9, application/sparql-results+xml"), 200, ctXML, ""},
		{"accept unsupported", get(selectQuery, "image/png"), 406, "text/plain", ""},
		{"missing query param", get("", ""), 400, "text/plain", ""},
		{"malformed query", get("SELECT WHERE {", ""), 400, "text/plain", ""},
		{"oversized query", get(selectQuery+strings.Repeat(" ", 5000), ""), 413, "text/plain", ""},
		{"bad POST content type", func() *http.Request {
			req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(selectQuery))
			req.Header.Set("Content-Type", "text/plain")
			return req
		}(), 415, "text/plain", ""},
		{"method not allowed", func() *http.Request {
			req, _ := http.NewRequest("PUT", ts.URL+"/query", nil)
			return req
		}(), 405, "text/plain", "GET, POST"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.DefaultClient.Do(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d\n%s", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantCT) {
				t.Fatalf("content type = %q, want prefix %q", ct, tc.wantCT)
			}
			if allow := resp.Header.Get("Allow"); allow != tc.wantAllow {
				t.Fatalf("Allow = %q, want %q", allow, tc.wantAllow)
			}
			if tc.wantStatus == 200 && tc.wantCT == ctJSON {
				vars, bindings := decodeJSONRows(t, body)
				if len(vars) != 2 || len(bindings) != 5 {
					t.Fatalf("vars=%v bindings=%d, want 2 vars and 5 rows", vars, len(bindings))
				}
				for _, b := range bindings {
					for _, cell := range b {
						if cell["type"] != "uri" {
							t.Fatalf("bib node serialized as %q, want uri", cell["type"])
						}
					}
				}
			}
		})
	}
}

func TestAskSerializations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for accept, want := range map[string]string{
		ctJSON: `"boolean":true`,
		ctXML:  "<boolean>true</boolean>",
		ctCSV:  "true",
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/query?query="+url.QueryEscape(askQuery), nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", accept, resp.StatusCode)
		}
		if !strings.Contains(strings.ReplaceAll(string(body), " ", ""), strings.ReplaceAll(want, " ", "")) {
			t.Errorf("%s: body %q lacks %q", accept, body, want)
		}
	}
}

// TestGroupByAliasCSV: a GROUP BY (expr AS ?k) key reaches the wire
// bound to each group's key.
func TestGroupByAliasCSV(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 7; i++ {
		st.Add(fmt.Sprintf("urn:x%d", i), "urn:group", fmt.Sprintf("urn:g%d", i%3))
	}
	_, ts := newTestServer(t, Config{Snapshot: st.Freeze()})
	q := `SELECT ?k (COUNT(*) AS ?n) WHERE { ?x <urn:group> ?g } GROUP BY (STR(?g) AS ?k) ORDER BY DESC(?n) ?k`
	req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(q))
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", ctCSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "k,n\nurn:g0,3\nurn:g1,2\nurn:g2,2\n"; resp.StatusCode != 200 || string(body) != want {
		t.Fatalf("status %d, body %q, want %q", resp.StatusCode, body, want)
	}
}

// TestStatsPrintsTheStudyAsSparqlanalyzeDoes: /stats carries, byte for
// byte, what sparqlanalyze -log prints for the same report
// (repro.LogReport): one set of renderers for the live and the batch
// study.
func TestStatsPrintsTheStudyAsSparqlanalyzeDoes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, q := range []string{
		selectQuery, selectQuery, askQuery,
		`PREFIX bib: <http://gmark.bib/p/> SELECT ?x WHERE { ?x bib:cites+ ?y . ?y bib:cites ?z FILTER(?x != ?z) } LIMIT 3`,
		`PREFIX bib: <http://gmark.bib/p/> SELECT ?x ?z WHERE { ?x bib:cites ?y OPTIONAL { ?y bib:cites ?z } } LIMIT 3`,
		`SELECT ?x WHERE { broken`,
	} {
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := repro.LogReport(s.Analyzer().Report())
	if !strings.Contains(want, "Table 1") || !strings.Contains(want, "Table 5") {
		t.Fatalf("the study rendering lacks its first or last table:\n%s", want)
	}
	if !strings.Contains(string(stats), want) {
		t.Errorf("/stats does not contain sparqlanalyze's rendering of the same report.\n/stats:\n%s\nwant section:\n%s", stats, want)
	}
}

// TestEndToEndSelfAnalysis is the acceptance loop: N queries over
// HTTP, then the self-analysis must have counted exactly those
// queries, /stats must render them, and the endpoint log must decode
// back into the served queries.
func TestEndToEndSelfAnalysis(t *testing.T) {
	var logBuf syncBuffer
	s, ts := newTestServer(t, Config{LogWriter: &logBuf})

	const nValid, nInvalid = 12, 3
	for i := 0; i < nValid; i++ {
		// Distinct texts so exact dedup keeps them all unique.
		q := selectQuery + fmt.Sprintf(" OFFSET %d", i)
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < nInvalid; i++ {
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(fmt.Sprintf("SELECT ?x WHERE { broken %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("invalid query %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	rep := s.Analyzer().Report()
	if rep.Total != nValid+nInvalid {
		t.Errorf("self-analysis Total = %d, want %d", rep.Total, nValid+nInvalid)
	}
	if rep.Valid != nValid || rep.Unique != nValid {
		t.Errorf("self-analysis Valid/Unique = %d/%d, want %d/%d", rep.Valid, rep.Unique, nValid, nValid)
	}
	if rep.Keywords["Select"] != nValid {
		t.Errorf("Select keyword count = %d, want %d", rep.Keywords["Select"], nValid)
	}

	// /stats renders the same numbers.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("%12d %12d %12d", nValid+nInvalid, nValid, nValid),
		"Serving",
		"result cache",
	} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("/stats lacks %q:\n%s", want, stats)
		}
	}

	// /metrics round trip.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("sparqld_queries_served_total %d", nValid),
		fmt.Sprintf("sparqld_log_entries_total %d", nValid+nInvalid),
		fmt.Sprintf("sparqld_log_valid_total %d", nValid),
		`sparqld_latency_seconds{quantile="0.5"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// The endpoint log decodes back into the served queries and is
	// itself analyzable by the batch pipeline with identical counts.
	entries, err := core.ReadLog(strings.NewReader(logBuf.String()), core.FormatApache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != nValid+nInvalid {
		t.Fatalf("endpoint log has %d entries, want %d", len(entries), nValid+nInvalid)
	}
	batch := core.AnalyzeLog("replay", entries, core.Options{})
	if batch.Total != rep.Total || batch.Valid != rep.Valid || batch.Unique != rep.Unique {
		t.Errorf("log replay Total/Valid/Unique = %d/%d/%d, live = %d/%d/%d",
			batch.Total, batch.Valid, batch.Unique, rep.Total, rep.Valid, rep.Unique)
	}
}

// TestDeadlineExpiry pins timeout observability: a query over budget
// returns 503 and the timeout is counted in the metrics.
func TestDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Snapshot: testSnapshot(t, 3000),
		Timeout:  10 * time.Millisecond,
		Limits:   eval.Limits{MaxRows: 1 << 30},
	})
	heavy := `PREFIX bib: <http://gmark.bib/p/>
		SELECT * WHERE { ?a bib:cites ?b . ?c bib:cites ?d . ?e bib:cites ?f }`
	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(heavy))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", resp.StatusCode, body)
	}
	if snap := s.Live().Snapshot(); snap.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", snap.Timeouts)
	}
}

// TestAdmissionControl: with one slot and no queue, a second request
// arriving while the first evaluates is rejected with 503.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Snapshot:    testSnapshot(t, 3000),
		MaxInFlight: 1,
		QueueDepth:  0,
		Limits:      eval.Limits{MaxRows: 1 << 30},
	})
	heavy := `PREFIX bib: <http://gmark.bib/p/>
		SELECT * WHERE { ?a bib:cites ?b . ?c bib:cites ?d . ?e bib:cites ?f }`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/query?query="+url.QueryEscape(heavy), nil)
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Wait until the heavy query holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heavy query never entered the gate")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(selectQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if snap := s.Live().Snapshot(); snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Rejected)
	}

	cancel()
	<-errc
	// The cancelled heavy query must free its slot promptly (the
	// cancellation-responsiveness bugfix: evaluation polls the context
	// from its inner loops).
	deadline = time.Now().Add(5 * time.Second)
	for s.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled query still holds its slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledPathQueryFreesWorker pins the pathcomp side of the
// cancellation sweep over HTTP: a heavy property-path query whose
// client disconnects returns its worker within a bounded wait.
func TestCancelledPathQueryFreesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Snapshot: testSnapshot(t, 4000),
		Limits:   eval.Limits{MaxRows: 1 << 30},
	})
	// Both ends free over a closure: the multi-source sweep visits the
	// whole citation graph — seconds of work unless cancellation lands.
	heavyPath := `PREFIX bib: <http://gmark.bib/p/>
		SELECT * WHERE { ?a (bib:cites|^bib:cites)+ ?b }`
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/query?query="+url.QueryEscape(heavyPath), nil)
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("path query never entered the gate")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-errc
	deadline = time.Now().Add(5 * time.Second)
	for s.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled path query still holds its worker after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if snap := s.Live().Snapshot(); snap.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (the disconnected query)", snap.Timeouts)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   string
		ok     bool
	}{
		{"", ctJSON, true},
		{"*/*", ctJSON, true},
		{"application/json", ctJSON, true},
		{"application/sparql-results+xml", ctXML, true},
		{"text/csv", ctCSV, true},
		{"text/tab-separated-values", ctTSV, true},
		{"text/*", ctCSV, true},
		{"application/*", ctJSON, true},
		{"image/png, */*;q=0.1", ctJSON, true},
		{"text/csv;q=0.5, application/sparql-results+json;q=0.4", ctCSV, true},
		{"image/png", "", false},
		{"text/html;q=0", "", false},
		// The most specific range decides a type's q: a wildcard does not
		// override an explicit refusal.
		{"application/sparql-results+json;q=0, */*", ctXML, true},
		{"text/csv;q=0, text/*", ctTSV, true},
		{"*/*;q=0.5, text/csv;q=0.5", ctCSV, true},
		{"application/json;q=0, application/*;q=0.9", ctXML, true},
	}
	for _, tc := range cases {
		got, ok := negotiate(tc.accept)
		if ok != tc.ok || got != tc.want {
			t.Errorf("negotiate(%q) = %q,%v want %q,%v", tc.accept, got, ok, tc.want, tc.ok)
		}
	}
}

func TestGate(t *testing.T) {
	g := NewGate(1, 0)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(context.Background()); err != ErrOverloaded {
		t.Fatalf("full gate Acquire = %v, want ErrOverloaded", err)
	}
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("freed gate Acquire = %v", err)
	}
	g.Release()

	// With a queue, a waiter parks until cancelled.
	g = NewGate(1, 1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("queued Acquire after cancel = %v", err)
	}
	g.Release()
	if g.InFlight() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inflight=%d waiting=%d", g.InFlight(), g.Waiting())
	}
}

// syncBuffer is a goroutine-safe strings.Builder for the log writer.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
