package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/qcache"
)

// TestLintHeader checks the per-query diagnostic surfacing: a query
// with findings carries their codes in X-Sparqld-Lint, a clean one
// carries no header.
func TestLintHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func(q string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := get(`SELECT ?x ?gone WHERE { ?x ?p ?o . FILTER(?x != ?x) }`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sparqld-Lint"); got != "SQL001,SQL004" {
		t.Fatalf("X-Sparqld-Lint = %q, want SQL001,SQL004", got)
	}

	clean := get(selectQuery)
	if clean.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", clean.StatusCode)
	}
	if got := clean.Header.Get("X-Sparqld-Lint"); got != "" {
		t.Fatalf("clean query got X-Sparqld-Lint = %q", got)
	}
}

// TestLintAggregates drives flagged queries through the endpoint and
// checks the aggregate surfacing in /stats and /metrics.
func TestLintAggregates(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, q := range []string{
		`SELECT * WHERE { ?s ?p ?o . FILTER(false) }`,
		`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:q> ?d }`,
		selectQuery,
	} {
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := s.Analyzer().Entries(); got != 3 {
		t.Fatalf("analyzer saw %d entries, want 3", got)
	}

	body := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	stats := body("/stats")
	if !strings.Contains(stats, "Static analysis") || !strings.Contains(stats, "SQL001") || !strings.Contains(stats, "SQL002") {
		t.Fatalf("/stats lacks the lint table:\n%s", stats)
	}
	if !strings.Contains(stats, "statically empty WHERE: 1") {
		t.Fatalf("/stats lacks the statically-empty tally:\n%s", stats)
	}

	metrics := body("/metrics")
	if !strings.Contains(metrics, `sparqld_lint_diagnostics_total{code="SQL001"} 1`) ||
		!strings.Contains(metrics, `sparqld_lint_diagnostics_total{code="SQL002"} 1`) {
		t.Fatalf("/metrics lacks lint counters:\n%s", metrics)
	}
	if !strings.Contains(metrics, "sparqld_lint_empty_queries_total 1") {
		t.Fatalf("/metrics lacks the statically-empty counter:\n%s", metrics)
	}
}

// TestStatsConditionalGet pins the ETag round trip: a tagged 200, a
// 304 on revalidation, and a fresh tag (plus 200) after the served
// workload changes.
func TestStatsConditionalGet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func(inm string) (*http.Response, string) { return statsGet(t, ts, inm) }

	first, body := get("")
	if first.StatusCode != http.StatusOK || body == "" {
		t.Fatalf("first GET: status=%d len=%d", first.StatusCode, len(body))
	}
	etag := first.Header.Get("ETag")
	if !strings.HasPrefix(etag, `W/"`) {
		t.Fatalf("ETag = %q, want weak tag", etag)
	}

	second, body := get(etag)
	if second.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status=%d, want 304", second.StatusCode)
	}
	if body != "" {
		t.Fatalf("304 carried a body: %q", body)
	}

	if resp, _ := get(`"stale", ` + etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("multi-tag revalidation: status=%d, want 304", resp.StatusCode)
	}
	if resp, _ := get("*"); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("star revalidation: status=%d, want 304", resp.StatusCode)
	}

	// Serving a query bumps the counters: the tag must rotate and the
	// old one must stop matching.
	qresp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(askQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()

	third, body := get(etag)
	if third.StatusCode != http.StatusOK || body == "" {
		t.Fatalf("post-change GET: status=%d len=%d, want fresh 200", third.StatusCode, len(body))
	}
	if third.Header.Get("ETag") == etag {
		t.Fatal("ETag did not rotate after the workload changed")
	}
}

// statsGet fetches /stats, conditionally when inm is set.
func statsGet(t *testing.T, ts *httptest.Server, inm string) (*http.Response, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b)
}

// TestStatsETagCoversCacheState: a result-cache change that serves no
// query (a first sighting, then an admission that adds an entry and its
// bytes) changes what /stats prints, so it must rotate the tag too.
func TestStatsETagCoversCacheState(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	qc := s.ResultCache()
	r := qcache.Result{Vars: []string{"s"}, Rows: [][]string{{"<http://gmark.bib/paper/1>"}}}
	for i := 0; i < 2; i++ {
		resp, _ := statsGet(t, ts, "")
		etag := resp.Header.Get("ETag")
		qc.Put(qc.Snapshot(), "direct", r, time.Second)
		if resp, _ := statsGet(t, ts, etag); resp.StatusCode != http.StatusOK {
			t.Fatalf("Put %d (entries %d, first sightings %d): /stats status %d, want 200",
				i+1, qc.Entries(), qc.FirstSightings(), resp.StatusCode)
		}
	}
	if qc.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", qc.Entries())
	}
}
