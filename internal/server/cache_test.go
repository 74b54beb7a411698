package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"sparqlog/internal/loggen"
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

// TestCacheAlphaEquivalentRequests: a renamed variant of a served query
// must be a cache hit — the key is the canonical fingerprint, not the
// request text.
func TestCacheAlphaEquivalentRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheMinCost: -1})
	const a = `PREFIX bib: <http://gmark.bib/p/>
SELECT ?x ?y WHERE { ?x bib:cites ?y } LIMIT 5`
	const b = `PREFIX p: <http://gmark.bib/p/>
SELECT ?paper ?cited WHERE { ?paper p:cites ?cited } LIMIT 5`
	if status, _, _ := cacheGet(t, ts, a, "", ""); status != 200 {
		t.Fatal("first variant failed")
	}
	status, h, _ := cacheGet(t, ts, b, "", "")
	if status != 200 {
		t.Fatal("second variant failed")
	}
	if got := h.Get("X-Sparqld-Cache"); got != "hit" {
		t.Fatalf("alpha-equivalent request = %q, want hit", got)
	}
	if s.ResultCache().Hits() == 0 {
		t.Fatal("cache counted no hits")
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
