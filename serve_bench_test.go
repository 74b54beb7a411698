// Serving-path benchmarks through server.Handler(): what one heavy
// request costs from query text to response bytes when it is new text
// and only executed and streamed (BenchmarkServeHeavyUnique), when it
// is also admitted to the result cache and serialized for the first
// time (BenchmarkServeHeavyFill), and what a repeat costs once the body
// is cached (BenchmarkServeBodyHit: the stored bytes, or a 304). All
// run in CI's bench-artifacts job; the end-to-end numbers they explain
// are bench/'s serve-heavy-unique and serve-hot-repeat.
package sparqlog

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/server"
)

// heavyServeTemplates are bench/workloads.go's analytic shapes, as far
// as the gMark Bib graph has the predicates for them: joins under
// DISTINCT, GROUP BY/HAVING with ORDER BY, closures, OPTIONAL, UNION
// and a full-predicate dump. %d is the LIMIT, which the caller makes
// unique and larger than any result, as serve-heavy-unique does: no
// result is cut and no two requests have the same text.
var heavyServeTemplates = []string{
	`SELECT DISTINCT ?r ?u WHERE { ?p bib:authoredBy ?r . ?r bib:affiliatedWith ?u } LIMIT %d`,
	`SELECT DISTINCT ?p ?j WHERE { ?p bib:publishedIn ?j . ?p bib:authoredBy ?r . ?p bib:cites ?c } LIMIT %d`,
	`SELECT ?j (COUNT(?p) AS ?n) WHERE { ?p bib:publishedIn ?j } GROUP BY ?j HAVING (COUNT(?p) > 1) ORDER BY DESC(?n) ?j LIMIT %d`,
	`SELECT ?x WHERE { ?x bib:cites+ <http://gmark.bib/paper/40> } LIMIT %d`,
	`SELECT ?s ?o WHERE { ?s bib:presentedAt ?o } LIMIT %d`,
	`SELECT ?p ?a ?c ?j WHERE { ?p bib:cites <http://gmark.bib/paper/5> . ?p bib:authoredBy ?a OPTIONAL { ?p bib:presentedAt ?c } OPTIONAL { ?p bib:publishedIn ?j } } LIMIT %d`,
	`SELECT ?p ?q WHERE { { ?p bib:cites <http://gmark.bib/paper/3> } UNION { ?p bib:cites <http://gmark.bib/paper/7> } ?q bib:cites ?p } LIMIT %d`,
}

var serveAccepts = []string{
	"application/sparql-results+json", "application/sparql-results+xml", "text/csv", "text/tab-separated-values",
}

// discardResponse is a ResponseWriter that keeps nothing, so the
// measured allocations are the handler's.
type discardResponse struct {
	h      http.Header
	status int
	n      int
}

func (w *discardResponse) Header() http.Header { return w.h }
func (w *discardResponse) WriteHeader(s int)   { w.status = s }
func (w *discardResponse) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func serveOnce(tb testing.TB, h http.Handler, query, accept, inm string) *discardResponse {
	req := httptest.NewRequest("GET", "/query?query="+url.QueryEscape("PREFIX bib: <http://gmark.bib/p/>\n"+query), nil)
	req.Header.Set("Accept", accept)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	w := &discardResponse{h: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK && w.status != http.StatusNotModified {
		tb.Fatalf("status %d for %s", w.status, query)
	}
	return w
}

// heavyServer is a server configured as sparqld deploys it, at the given
// result-cache admission floor (0: sparqld's own).
func heavyServer(tb testing.TB, minCost time.Duration) *server.Server {
	g := plannerBenchGraph(tb)
	return server.New(server.Config{
		Snapshot: g.Snapshot, MaxInFlight: 2, QueueDepth: 8,
		Limits: eval.Limits{MaxRows: 1 << 21}, CacheMinCost: minCost,
	})
}

// heavyFillHandler is heavyServer with admission taking every result on
// its first fill: each request below is a fill.
func heavyFillHandler(tb testing.TB) http.Handler { return heavyServer(tb, -1).Handler() }

// heavyRequest serves the i-th request of the replay: templates and
// formats take turns, the LIMIT makes the text new.
func heavyRequest(tb testing.TB, h http.Handler, i int) *discardResponse {
	q := fmt.Sprintf(heavyServeTemplates[i%len(heavyServeTemplates)], 100000+i)
	return serveOnce(tb, h, q, serveAccepts[(i/len(heavyServeTemplates))%len(serveAccepts)], "")
}

// benchHeavyReplay serves the replay's requests through h, one per
// iteration, after a warm-up of the plan and path caches and the buffer
// pool.
func benchHeavyReplay(b *testing.B, h http.Handler) {
	heavyRequest(b, h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	bytes := 0
	for i := 0; i < b.N; i++ {
		bytes += heavyRequest(b, h, 1+i).n
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "resp-B/op")
}

// BenchmarkServeHeavyFill: execute + fill + first serialization, per
// heavy request, through the handler. At the deployed rule this is what
// a repeat pays on its second sighting, not what unique traffic costs
// (BenchmarkServeHeavyUnique).
func BenchmarkServeHeavyFill(b *testing.B) { benchHeavyReplay(b, heavyFillHandler(b)) }

// BenchmarkServeHeavyUnique: the same requests at the deployed admission
// rule, where each new text is a first sighting: execute and stream the
// answer, retaining nothing. The in-process cell of bench/'s
// serve-heavy-unique.
func BenchmarkServeHeavyUnique(b *testing.B) { benchHeavyReplay(b, heavyServer(b, 0).Handler()) }

// heavyFillBytesBudget is half of what the replay below allocated per
// request at the commit before the answer became one columnar value
// (1,147,822 B/request there: row strings, boxed rows, a map per JSON
// row, reflection and regrown buffers beside the columns). Allocation
// volume repeats from run to run, so it is held as a count.
const heavyFillBytesBudget = 1147822 / 2

// TestServeHeavyFillAllocBudget holds the replay's allocation volume
// under heavyFillBytesBudget.
func TestServeHeavyFillAllocBudget(t *testing.T) {
	h := heavyFillHandler(t)
	heavyRequest(t, h, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < heavyReplayLen; i++ {
		heavyRequest(t, h, 1+i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / heavyReplayLen
	t.Logf("%d B allocated per heavy fill request", per)
	if per > heavyFillBytesBudget {
		t.Fatalf("a heavy fill request allocates %d B, budget %d", per, heavyFillBytesBudget)
	}
}

// heavyReplayLen covers every template in every format.
const heavyReplayLen = 4 * 7

// TestServeHeavyUniqueRetainsNothing: at the deployed admission rule a
// replay of unique heavy requests leaves the result cache empty and the
// live heap where it was.
func TestServeHeavyUniqueRetainsNothing(t *testing.T) {
	s := heavyServer(t, 0)
	h := s.Handler()
	heavyRequest(t, h, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < heavyReplayLen; i++ {
		heavyRequest(t, h, 1+i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %d B over %d unique heavy requests", grew, heavyReplayLen)
	if b := s.ResultCache().Bytes(); b != 0 {
		t.Fatalf("result cache holds %d B after unique traffic, want 0", b)
	}
	if grew >= 1<<20 {
		t.Fatalf("heap grew %d B over unique traffic, want < 1 MiB", grew)
	}
}

// BenchmarkServeBodyHit: a repeat of a cached heavy request, answered
// from the stored body (hit) or with 304 (conditional). Neither reads a
// cell of the answer.
func BenchmarkServeBodyHit(b *testing.B) {
	h := heavyFillHandler(b)
	q := fmt.Sprintf(heavyServeTemplates[0], 100000)
	etag := serveOnce(b, h, q, serveAccepts[0], "").h.Get("ETag")
	if etag == "" {
		b.Fatal("fill carried no ETag")
	}
	for _, cell := range []struct{ name, inm string }{{"hit", ""}, {"conditional", etag}} {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := serveOnce(b, h, q, serveAccepts[0], cell.inm)
				if (w.status == http.StatusNotModified) != (cell.inm != "") || w.h.Get("X-Sparqld-Cache") != "hit" {
					b.Fatalf("status %d, cache %q", w.status, w.h.Get("X-Sparqld-Cache"))
				}
			}
		})
	}
}
