package server

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/qcache"
	"sparqlog/internal/sparql"
)

// TestPanicOnRequestPathCostsOneRequest injects a panic into the
// executor under a single-flight leader while a second request for the
// same query follows it. The panicking request must get a 500; the
// follower must notice at once and answer by executing itself; the
// evaluation slot must come back (before the fix it was gone for good:
// after MaxInFlight such requests every query was a 503); and the
// panic must show on /metrics.
func TestPanicOnRequestPathCostsOneRequest(t *testing.T) {
	prev := log.Writer()
	log.SetOutput(io.Discard) // the handler logs the stack of what it recovers
	defer log.SetOutput(prev)
	s, ts := newTestServer(t, Config{MaxInFlight: 2, QueueDepth: 4, CacheMinCost: -1, Timeout: 5 * time.Second})

	leaderIn, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	eval.TestHookExecute = func(*sparql.Query) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-release
			panic("injected executor panic")
		}
	}
	defer func() { eval.TestHookExecute = nil }()

	get := func() (int, time.Duration) {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/query?query=" + url.QueryEscape(selectQuery))
		if err != nil {
			t.Error(err)
			return 0, 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, time.Since(start)
	}
	var wg sync.WaitGroup
	var leaderStatus, followerStatus int
	var followerTook time.Duration
	wg.Add(2)
	go func() { defer wg.Done(); leaderStatus, _ = get() }()
	<-leaderIn
	go func() { defer wg.Done(); followerStatus, followerTook = get() }()
	// The follower holds the second slot once it is past the gate; give
	// it a moment more to join the leader's flight, then let the leader
	// panic.
	for deadline := time.Now().Add(5 * time.Second); s.gate.InFlight() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("follower never entered the gate")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if leaderStatus != http.StatusInternalServerError {
		t.Errorf("panicking request answered %d, want 500", leaderStatus)
	}
	if followerStatus != http.StatusOK || followerTook > 2*time.Second {
		t.Errorf("follower answered %d after %v, want a prompt 200 from its own execution", followerStatus, followerTook)
	}
	if n := s.gate.InFlight(); n != 0 {
		t.Fatalf("%d evaluation slots still held after the panic", n)
	}
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("request after the panic answered %d, want 200", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\nsparqld_panics_total 1\n") {
		t.Errorf("/metrics does not report the panic:\n%s", body)
	}
}

// nullResponse is a ResponseWriter that keeps nothing, so a measured
// handler call allocates only what the handler allocates.
type nullResponse struct {
	h      http.Header
	status int
	n      int
}

func (w *nullResponse) Header() http.Header { return w.h }
func (w *nullResponse) WriteHeader(s int)   { w.status = s }
func (w *nullResponse) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	allocs = testing.AllocsPerRun(runs, func() {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	})
	return allocs, bytes / float64(runs+1)
}

// TestBodyHitCostIndependentOfRows: a body hit and a 304 through the
// handler read no cell of the answer, so serving a 10,000-row entry
// allocates what serving a 10-row entry does (materializing the larger
// one's rows alone would be 2 allocations and 400 KB more). The
// comparison leaves room for what the race detector's randomized
// sync.Pool adds to a run: a few small objects.
func TestBodyHitCostIndependentOfRows(t *testing.T) {
	s := New(Config{Snapshot: testSnapshot(t, 12000), CacheMinCost: -1, Limits: eval.Limits{MaxRows: 1 << 20}})
	h := s.Handler()
	serve := func(limit int, inm string) *nullResponse {
		// Both query texts (and so both cache keys) have one length:
		// what differs between the two measurements is the entry alone.
		q := fmt.Sprintf("PREFIX bib: <http://gmark.bib/p/> SELECT ?p ?q WHERE { ?p bib:cites ?q } LIMIT %d OFFSET %d", limit, 10000/limit)
		req := httptest.NewRequest("GET", "/query?query="+url.QueryEscape(q), nil)
		req.Header.Set("Accept", ctTSV)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		w := &nullResponse{h: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(w, req)
		return w
	}
	var allocs, bytes [2][2]float64 // [hit, 304][10 rows, 10,000 rows]
	for i, limit := range []int{10, 10000} {
		fill := serve(limit, "")
		etag := fill.h.Get("ETag")
		if fill.status != http.StatusOK || etag == "" {
			t.Fatalf("LIMIT %d: fill answered %d, ETag %q", limit, fill.status, etag)
		}
		if w := serve(limit, ""); w.h.Get("X-Sparqld-Cache") != "hit" || w.n != fill.n {
			t.Fatalf("LIMIT %d: repeat is %q with %d bytes, want a hit with %d", limit, w.h.Get("X-Sparqld-Cache"), w.n, fill.n)
		}
		if w := serve(limit, etag); w.status != http.StatusNotModified || w.n != 0 {
			t.Fatalf("LIMIT %d: conditional repeat answered %d with %d bytes", limit, w.status, w.n)
		}
		if limit == 10000 && fill.n < 100*10000/10 {
			t.Fatalf("LIMIT 10000 produced only %d bytes: not enough rows in the test graph", fill.n)
		}
		allocs[0][i], bytes[0][i] = allocsPerRun(100, func() { serve(limit, "") })
		allocs[1][i], bytes[1][i] = allocsPerRun(100, func() { serve(limit, etag) })
	}
	for k, what := range []string{"body hit", "304"} {
		t.Logf("%s: %v allocs / %.0f B for 10 rows, %v allocs / %.0f B for 10,000", what, allocs[k][0], bytes[k][0], allocs[k][1], bytes[k][1])
		if d := allocs[k][1] - allocs[k][0]; d > 3 || d < -3 {
			t.Errorf("%s allocates %v times for 10 rows and %v for 10,000", what, allocs[k][0], allocs[k][1])
		}
		if d := bytes[k][1] - bytes[k][0]; d > 2048 || d < -2048 {
			t.Errorf("%s allocates %.0f B for 10 rows and %.0f B for 10,000", what, bytes[k][0], bytes[k][1])
		}
	}
}

// TestSharedEntrySerializedWhileEvicted runs under -race in CI: four
// requests at a time serialize one shared cache entry, each in its own
// format, while another goroutine keeps evicting that entry (so hits,
// fills of a fresh entry, and serializations of an answer no longer
// resident interleave). Every response must be the reference bytes:
// nobody writes through a shared answer.
func TestSharedEntrySerializedWhileEvicted(t *testing.T) {
	sn := testSnapshot(t, 3000)
	const q = `PREFIX bib: <http://gmark.bib/p/> SELECT ?p ?q ?j WHERE { ?p bib:cites ?q OPTIONAL { ?q bib:publishedIn ?j } } LIMIT 700`
	reference := map[string][]byte{}
	plain := New(Config{Snapshot: sn, CacheBytes: -1}).Handler()
	request := func(h http.Handler, ct string) []byte {
		req := httptest.NewRequest("GET", "/query?query="+url.QueryEscape(q), nil)
		req.Header.Set("Accept", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", ct, rec.Code)
		}
		return rec.Body.Bytes()
	}
	for _, ct := range allContentTypes {
		reference[ct] = request(plain, ct)
	}

	s := New(Config{Snapshot: sn, CacheMinCost: -1, CacheBytes: 4 << 20, MaxInFlight: 8})
	h := s.Handler()
	// Large enough that two of them overflow any shard (4 MiB over 16
	// shards), so every entry beside them is evicted.
	var rows [][]string
	for i := 0; i < 20000; i++ {
		rows = append(rows, []string{"urn:filler", "urn:filler"})
	}
	filler := exec.NewAnswer(sn, []string{"a", "b"}, rows, false)

	stop := make(chan struct{})
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.qc.Put(sn, fmt.Sprintf("filler-%d", i), qcache.Result{Answer: filler}, time.Second)
		}
	}()
	var readers sync.WaitGroup
	for _, ct := range allContentTypes {
		readers.Add(1)
		go func(ct string) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				if got := request(h, ct); !bytes.Equal(got, reference[ct]) {
					t.Errorf("%s: response %d differs from the uncached reference", ct, i)
					return
				}
			}
		}(ct)
	}
	readers.Wait()
	close(stop)
	evictor.Wait()
	if s.qc.Evictions() == 0 || s.qc.Hits() == 0 {
		t.Fatalf("evictions %d, hits %d: the entry was never both shared and evicted", s.qc.Evictions(), s.qc.Hits())
	}
}
