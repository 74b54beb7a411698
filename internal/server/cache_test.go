package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/loggen"
	"sparqlog/internal/rdf"
)

// cacheGet issues one GET and returns status, headers, and body.
func cacheGet(t *testing.T, ts *httptest.Server, query, accept, inm string) (int, http.Header, []byte) {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/query?query="+url.QueryEscape(query), nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, body
}

// TestCacheHeaderLifecycle pins the serving contract of the result
// cache: miss → hit → 304, with the hit body byte-identical to the
// miss's streamed serialization, for every negotiated content type.
func TestCacheHeaderLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMinCost: -1})

	for i, ct := range []string{ctJSON, ctXML, ctCSV, ctTSV} {
		t.Run(ct, func(t *testing.T) {
			// Distinct query per content type so each starts cold (the
			// entry is shared across types; only bodies are per-type).
			q := fmt.Sprintf("%s OFFSET %d", selectQuery, i)
			status, h, missBody := cacheGet(t, ts, q, ct, "")
			if status != 200 {
				t.Fatalf("miss status = %d\n%s", status, missBody)
			}
			if got := h.Get("X-Sparqld-Cache"); got != "miss" {
				t.Fatalf("first serve X-Sparqld-Cache = %q, want miss", got)
			}
			etag := h.Get("ETag")
			if etag == "" {
				t.Fatal("cache-resident miss carries no ETag")
			}

			status, h, hitBody := cacheGet(t, ts, q, ct, "")
			if status != 200 {
				t.Fatalf("hit status = %d", status)
			}
			if got := h.Get("X-Sparqld-Cache"); got != "hit" {
				t.Fatalf("second serve X-Sparqld-Cache = %q, want hit", got)
			}
			if h.Get("ETag") != etag {
				t.Fatalf("ETag changed across identical serves: %q vs %q", etag, h.Get("ETag"))
			}
			if !bytes.Equal(missBody, hitBody) {
				t.Fatalf("cached body diverges from streamed serialization:\nmiss %q\nhit  %q", missBody, hitBody)
			}

			status, h, condBody := cacheGet(t, ts, q, ct, etag)
			if status != http.StatusNotModified {
				t.Fatalf("If-None-Match round trip = %d, want 304", status)
			}
			if len(condBody) != 0 {
				t.Fatalf("304 carried a body: %q", condBody)
			}
			if h.Get("ETag") != etag {
				t.Fatalf("304 ETag = %q, want %q", h.Get("ETag"), etag)
			}

			// A stale validator must get the full body again.
			status, _, _ = cacheGet(t, ts, q, ct, `"0000000000000000"`)
			if status != 200 {
				t.Fatalf("stale If-None-Match = %d, want 200", status)
			}
		})
	}
}

// TestIfNoneMatchWeakComparison: If-None-Match compares entity tags
// weakly (RFC 9110 §13.1.2), in both directions. A proxy that weakens a
// cached body's strong tag must still get a 304, and so must a client
// that sends /stats' weak tag in its strong form.
func TestIfNoneMatchWeakComparison(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMinCost: -1})
	t.Run("weak validator, strong body tag", func(t *testing.T) {
		cacheGet(t, ts, selectQuery, ctJSON, "")
		_, h, _ := cacheGet(t, ts, selectQuery, ctJSON, "")
		etag := h.Get("ETag")
		if etag == "" || strings.HasPrefix(etag, "W/") {
			t.Fatalf("cached body ETag = %q, want a strong tag", etag)
		}
		if status, _, _ := cacheGet(t, ts, selectQuery, ctJSON, "W/"+etag); status != http.StatusNotModified {
			t.Fatalf("If-None-Match W/%s = %d, want 304", etag, status)
		}
		if status, _, _ := cacheGet(t, ts, selectQuery, ctJSON, `W/"0000000000000000", W/`+etag); status != http.StatusNotModified {
			t.Fatalf("listed W/%s = %d, want 304", etag, status)
		}
	})
	t.Run("strong validator, weak stats tag", func(t *testing.T) {
		resp, _ := statsGet(t, ts, "")
		etag := resp.Header.Get("ETag")
		strong, weak := strings.CutPrefix(etag, "W/")
		if !weak {
			t.Fatalf("/stats ETag = %q, want a weak tag", etag)
		}
		if resp, _ := statsGet(t, ts, strong); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("/stats If-None-Match %s = %d, want 304", strong, resp.StatusCode)
		}
	})
}

// TestCacheSecondSightingLifecycle pins the serving contract at the
// deployed admission rule, with a floor every query clears so only the
// sighting decides: the first request streams an uncached answer (no
// ETag), the second fills the cache and carries the ETag, the third is
// a byte-identical hit, and revalidation is a 304.
func TestCacheSecondSightingLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheMinCost: time.Nanosecond})
	for i, ct := range []string{ctJSON, ctXML, ctCSV, ctTSV} {
		t.Run(ct, func(t *testing.T) {
			q := fmt.Sprintf("%s OFFSET %d", selectQuery, i)
			status, h, firstBody := cacheGet(t, ts, q, ct, "")
			if status != 200 || h.Get("X-Sparqld-Cache") != "miss" || h.Get("ETag") != "" {
				t.Fatalf("first request: status %d, cache %q, ETag %q; want 200, miss, none",
					status, h.Get("X-Sparqld-Cache"), h.Get("ETag"))
			}
			status, h, secondBody := cacheGet(t, ts, q, ct, "")
			etag := h.Get("ETag")
			if status != 200 || h.Get("X-Sparqld-Cache") != "miss" || etag == "" {
				t.Fatalf("second request: status %d, cache %q, ETag %q; want 200, miss, a tag",
					status, h.Get("X-Sparqld-Cache"), etag)
			}
			status, h, hitBody := cacheGet(t, ts, q, ct, "")
			if status != 200 || h.Get("X-Sparqld-Cache") != "hit" || h.Get("ETag") != etag {
				t.Fatalf("third request: status %d, cache %q, ETag %q; want 200, hit, %q",
					status, h.Get("X-Sparqld-Cache"), h.Get("ETag"), etag)
			}
			if !bytes.Equal(firstBody, hitBody) || !bytes.Equal(secondBody, hitBody) {
				t.Fatalf("bodies diverge:\nfirst  %q\nsecond %q\nhit    %q", firstBody, secondBody, hitBody)
			}
			if status, _, _ := cacheGet(t, ts, q, ct, etag); status != http.StatusNotModified {
				t.Fatalf("If-None-Match = %d, want 304", status)
			}
		})
	}
	if got := s.ResultCache().FirstSightings(); got != 4 {
		t.Fatalf("FirstSightings = %d, want 4", got)
	}
}

// TestCacheAlphaEquivalentRequests: a request that only respells a
// prefix is answered from the entry its variant filled; one that also
// renames the projected variables is not, because its answer is in its
// own names.
func TestCacheAlphaEquivalentRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheMinCost: -1})
	const a = `PREFIX bib: <http://gmark.bib/p/>
SELECT ?x ?y WHERE { ?x bib:cites ?y } LIMIT 5`
	const b = `PREFIX p: <http://gmark.bib/p/>
SELECT ?x ?y WHERE { ?x p:cites ?y } LIMIT 5`
	const c = `PREFIX p: <http://gmark.bib/p/>
SELECT ?paper ?cited WHERE { ?paper p:cites ?cited } LIMIT 5`
	if status, _, _ := cacheGet(t, ts, a, "", ""); status != 200 {
		t.Fatal("first variant failed")
	}
	status, h, _ := cacheGet(t, ts, b, "", "")
	if status != 200 {
		t.Fatal("second variant failed")
	}
	if got := h.Get("X-Sparqld-Cache"); got != "hit" {
		t.Fatalf("prefix-respelled request = %q, want hit", got)
	}
	if s.ResultCache().Hits() == 0 {
		t.Fatal("cache counted no hits")
	}
	status, h, body := cacheGet(t, ts, c, "", "")
	if status != 200 {
		t.Fatal("renamed variant failed")
	}
	if got := h.Get("X-Sparqld-Cache"); got != "miss" {
		t.Fatalf("request renaming the projected variables = %q, want miss", got)
	}
	if vars, _ := decodeJSONRows(t, body); strings.Join(vars, " ") != "paper cited" {
		t.Fatalf("renamed variant answered with head %v", vars)
	}
}

// TestCacheHitAnswersInItsOwnVariables sends pairs of queries of one
// canonical text that project different names, in every format: the
// second of a pair must get its own answer, the one a server without a
// cache gives, both after its pair's fill (miss, then hit) and on the
// conditional path, where its pair's ETag must not turn it into a 304.
func TestCacheHitAnswersInItsOwnVariables(t *testing.T) {
	st := rdf.NewStore()
	st.Add("urn:s", "urn:p", "urn:o")
	for i := 0; i < 12; i++ {
		st.Add(fmt.Sprintf("urn:n%d", i), "urn:next", fmt.Sprintf("urn:n%d", (i+1)%12))
	}
	sn := st.Freeze()
	pairs := [][2]string{
		// The same header, the values swapped.
		{`SELECT * WHERE { ?a <urn:p> ?b }`, `SELECT * WHERE { ?b <urn:p> ?a }`},
		// Another header.
		{`SELECT ?from (COUNT(?to) AS ?n) WHERE { ?from <urn:next>+ ?to } GROUP BY ?from ORDER BY ?from LIMIT 3`,
			`SELECT ?s (COUNT(?o) AS ?reach) WHERE { ?s <urn:next>+ ?o } GROUP BY ?s ORDER BY ?s LIMIT 3`},
	}
	_, plain := newTestServer(t, Config{Snapshot: sn, CacheBytes: -1})
	for pi, pair := range pairs {
		for ci, ct := range []string{ctJSON, ctXML, ctCSV, ctTSV} {
			format := []string{"json", "xml", "csv", "tsv"}[ci]
			var want [2][]byte
			for i, q := range pair {
				_, _, want[i] = cacheGet(t, plain, q, ct, "")
			}
			if bytes.Equal(want[0], want[1]) {
				t.Fatalf("%s: the pair answers alike:\n%s", ct, want[0])
			}
			check := func(t *testing.T, step string, i int, wantCache string, status int, h http.Header, body []byte) {
				t.Helper()
				if status != 200 || h.Get("X-Sparqld-Cache") != wantCache || !bytes.Equal(body, want[i]) {
					t.Fatalf("%s %q: status %d, cache %q, body\n%s\nwant 200, %s,\n%s",
						step, pair[i], status, h.Get("X-Sparqld-Cache"), body, wantCache, want[i])
				}
			}
			t.Run(fmt.Sprintf("pair%d/%s/miss-hit", pi, format), func(t *testing.T) {
				_, ts := newTestServer(t, Config{Snapshot: sn, CacheMinCost: -1})
				status, h, body := cacheGet(t, ts, pair[0], ct, "")
				check(t, "fill", 0, "miss", status, h, body)
				status, h, body = cacheGet(t, ts, pair[1], ct, "")
				check(t, "after its pair's fill", 1, "miss", status, h, body)
				status, h, body = cacheGet(t, ts, pair[1], ct, "")
				check(t, "repeat", 1, "hit", status, h, body)
				status, h, body = cacheGet(t, ts, pair[0], ct, "")
				check(t, "pair repeat", 0, "hit", status, h, body)
			})
			t.Run(fmt.Sprintf("pair%d/%s/conditional", pi, format), func(t *testing.T) {
				_, ts := newTestServer(t, Config{Snapshot: sn, CacheMinCost: -1})
				cacheGet(t, ts, pair[0], ct, "")
				status, h, body := cacheGet(t, ts, pair[0], ct, "")
				check(t, "body hit", 0, "hit", status, h, body)
				etag := h.Get("ETag")
				status, h, body = cacheGet(t, ts, pair[1], ct, etag)
				check(t, "conditional on its pair's ETag", 1, "miss", status, h, body)
				if h.Get("ETag") == etag {
					t.Fatalf("the pair shares the ETag %s", etag)
				}
				if status, _, _ := cacheGet(t, ts, pair[1], ct, h.Get("ETag")); status != http.StatusNotModified {
					t.Fatalf("conditional on its own ETag = %d, want 304", status)
				}
			})
		}
	}
}

// TestCacheHitIsAServedQuery: a hit never reaches the executor, yet it
// is a served query like any other. After a miss and a hit, /metrics
// counts two served queries and the latency window holds two samples.
func TestCacheHitIsAServedQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheMinCost: -1})
	for i, want := range []string{"miss", "hit"} {
		if status, h, _ := cacheGet(t, ts, selectQuery, "", ""); status != 200 || h.Get("X-Sparqld-Cache") != want {
			t.Fatalf("request %d: status %d, cache %q; want 200, %s", i+1, status, h.Get("X-Sparqld-Cache"), want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\nsparqld_queries_served_total 2\n") {
		t.Fatalf("/metrics does not count the hit as served:\n%s", body)
	}
	if n := s.Live().Snapshot().Window; n != 2 {
		t.Fatalf("latency window holds %d samples, want 2", n)
	}
}

// TestCacheDisabled: CacheBytes < 0 turns the feature off entirely —
// no header, no ETag, no cache allocation.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: -1})
	if s.ResultCache() != nil {
		t.Fatal("ResultCache allocated despite CacheBytes < 0")
	}
	for i := 0; i < 2; i++ {
		status, h, _ := cacheGet(t, ts, selectQuery, "", "")
		if status != 200 {
			t.Fatalf("status = %d", status)
		}
		if h.Get("X-Sparqld-Cache") != "" || h.Get("ETag") != "" {
			t.Fatal("disabled cache still sets cache headers")
		}
	}
}

// TestCacheReplayHitRatio replays a generated workload twice through
// the full serving path and requires the second pass to be mostly
// cache hits — the acceptance bar of the caching work (>=40%; real
// logs repeat far more).
func TestCacheReplayHitRatio(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheMinCost: -1})
	ds := loggen.Generate(loggen.Profiles()[0], 120, 7)

	replay := func() (served int) {
		for _, raw := range ds.Entries {
			status, _, _ := cacheGet(t, ts, raw, "", "")
			if status == 200 {
				served++
			}
		}
		return served
	}
	replay()
	hits0 := s.ResultCache().Hits()
	served := replay()
	if served == 0 {
		t.Fatal("no replayed entry was servable")
	}
	hits := s.ResultCache().Hits() - hits0
	ratio := float64(hits) / float64(served)
	t.Logf("second pass: %d served, %d hits (%.1f%%)", served, hits, 100*ratio)
	if ratio < 0.4 {
		t.Fatalf("second-pass hit ratio %.2f below 0.40", ratio)
	}
}
