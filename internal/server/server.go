package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/lint"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/service"
	"sparqlog/internal/sparql"
)

// Config configures a Server.
type Config struct {
	// Snapshot is the served dataset (required).
	Snapshot *rdf.Snapshot
	// Timeout is the per-request evaluation deadline; 0 means only
	// client disconnection bounds a query.
	Timeout time.Duration
	// MaxInFlight bounds concurrent evaluations (<= 0: 2×GOMAXPROCS as
	// chosen by the caller; the server itself normalizes to 1).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an evaluation slot;
	// beyond it requests are rejected with 503.
	QueueDepth int
	// MaxQueryBytes bounds the accepted query text size; <= 0 means
	// DefaultMaxQueryBytes.
	MaxQueryBytes int64
	// Limits bounds each evaluation (MaxRows; 0 means
	// eval.DefaultMaxRows).
	Limits eval.Limits
	// CacheBytes is the result cache's byte budget: 0 means
	// qcache.DefaultMaxBytes, negative disables result caching
	// entirely (every request executes).
	CacheBytes int64
	// CacheMinCost is the result cache's admission cost floor: only
	// results whose execution took at least this long are stored, on
	// their query's second sighting (qcache.Options.MinCost). 0 means
	// qcache.DefaultMinCost; negative admits every successful result on
	// its first fill.
	CacheMinCost time.Duration
	// Analyzer configures the self-analysis pipeline (dedup mode etc.).
	Analyzer core.Options
	// LogWriter, when set, receives one Apache-style endpoint log line
	// per served query request — the paper's input format, so the
	// server's own log can be fed back through
	// `sparqlanalyze -log FILE -format apache`.
	LogWriter io.Writer
	// CorpusName labels the self-analysis report; default "sparqld".
	CorpusName string
}

// DefaultMaxQueryBytes bounds query text size when Config leaves it 0.
const DefaultMaxQueryBytes = 1 << 20

// Server is the SPARQL 1.1 Protocol endpoint: an Executor over one
// snapshot behind a result cache, admission control, live serving
// statistics, and incremental self-analysis of the query workload.
// The server is the result cache's one owner: execute looks a request
// up, and only on a miss calls the Executor, which consults no cache.
// Create with New, expose via Handler.
type Server struct {
	ex *service.Executor
	qc *qcache.Cache // nil when result caching is disabled
	// keyPrefix leads every result-cache key: "mr<MaxRows>|". The row
	// budget is part of the key because it changes observable behaviour
	// at the margin — a result that fit a large budget must not answer a
	// request whose smaller budget would have overflowed.
	keyPrefix string
	gate      *Gate
	live      *service.Live
	an        *core.LiveAnalyzer

	maxQueryBytes int64
	timeout       time.Duration
	// panics counts requests that panicked and were answered with 500.
	panics atomic.Int64

	logMu sync.Mutex
	logW  io.Writer
}

// New returns a server over cfg.Snapshot.
func New(cfg Config) *Server {
	var qc *qcache.Cache
	if cfg.CacheBytes >= 0 {
		qc = qcache.New(cfg.Snapshot, qcache.Options{
			MaxBytes: cfg.CacheBytes,
			MinCost:  cfg.CacheMinCost,
		})
	}
	name := cfg.CorpusName
	if name == "" {
		name = "sparqld"
	}
	maxQ := cfg.MaxQueryBytes
	if maxQ <= 0 {
		maxQ = DefaultMaxQueryBytes
	}
	// The endpoint always lints its workload: per-query diagnostics go
	// out in the X-Sparqld-Lint header and the aggregates feed /stats
	// and /metrics (the option stays off by default only for the batch
	// pipeline, whose benchmarks gate on the paper analyses alone).
	cfg.Analyzer.Lint = true
	// Resolved here, once, so the budget in the cache key is the one
	// eval applies.
	lim := cfg.Limits
	if lim.MaxRows <= 0 {
		lim.MaxRows = eval.DefaultMaxRows
	}
	return &Server{
		ex:            service.NewExecutor(cfg.Snapshot, service.ExecutorOptions{Timeout: cfg.Timeout, Limits: lim}),
		qc:            qc,
		keyPrefix:     "mr" + strconv.Itoa(lim.MaxRows) + "|",
		gate:          NewGate(cfg.MaxInFlight, cfg.QueueDepth),
		live:          service.NewLive(0),
		an:            core.NewLiveAnalyzer(name, cfg.Analyzer, 0),
		maxQueryBytes: maxQ,
		timeout:       cfg.Timeout,
		logW:          cfg.LogWriter,
	}
}

// Handler returns the endpoint's HTTP handler:
//
//	/query    SPARQL 1.1 Protocol query operation (GET and POST)
//	/stats    live self-analysis statistics (paper-style tables)
//	/metrics  Prometheus-style text serving metrics
//	/healthz  liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/sparql", s.handleQuery) // conventional alias
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Analyzer exposes the live self-analysis feed (tests and embedders).
func (s *Server) Analyzer() *core.LiveAnalyzer { return s.an }

// Live exposes the serving-statistics collector.
func (s *Server) Live() *service.Live { return s.live }

// ResultCache exposes the shared result cache; nil when disabled
// (Config.CacheBytes < 0).
func (s *Server) ResultCache() *qcache.Cache { return s.qc }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// A panic below costs this request a 500 and nothing else: the
	// evaluation slot is released by the frame that holds it as the
	// panic passes, and it stops here.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.panics.Add(1)
		log.Printf("sparqld: panic serving query: %v\n%s", p, debug.Stack())
		plainError(w, http.StatusInternalServerError, "internal error")
	}()
	raw, herr := readQuery(r, s.maxQueryBytes)
	if herr != nil {
		if herr.status == http.StatusMethodNotAllowed {
			// RFC 9110 §15.5.6: a 405 names the methods that are allowed.
			w.Header().Set("Allow", "GET, POST")
		}
		plainError(w, herr.status, herr.msg)
		return
	}
	// Negotiate before spending execution capacity: a request nobody
	// can read the answer of is rejected up front (406).
	ct, ok := negotiate(r.Header.Get("Accept"))
	if !ok {
		plainError(w, http.StatusNotAcceptable,
			"no acceptable result format; supported: "+ctJSON+", "+ctXML+", "+ctCSV+", "+ctTSV)
		return
	}

	// Every request with query text enters the endpoint log and the
	// self-analysis stream, malformed ones included: the paper's
	// Table 1 distinguishes Total (all logged queries) from Valid
	// (parseable ones), and the analyzer draws that line itself. The
	// request is parsed and linted once, here; the analyzer and the
	// executor share the result (both only read the AST).
	s.logRequest(r, raw)
	q, err := sparql.Parse(raw)
	var lr *lint.Result
	if err == nil {
		lr = lint.Run(q)
	}
	s.an.AddParsed(raw, q, err, lr)
	if err != nil {
		plainError(w, http.StatusBadRequest, "malformed query: "+err.Error())
		return
	}

	// The distinct diagnostic codes ride along as a response header, so
	// clients learn about unsatisfiable filters or cartesian products
	// next to the (often empty) answer they explain.
	if codes := lr.Codes(); len(codes) > 0 {
		w.Header().Set("X-Sparqld-Lint", strings.Join(codes, ","))
	}

	if err := s.gate.Acquire(r.Context()); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.live.Reject()
			w.Header().Set("Retry-After", "1")
			plainError(w, http.StatusServiceUnavailable, "server overloaded, retry later")
		} else {
			// Client went away while queued.
			s.live.Reject()
			plainError(w, http.StatusServiceUnavailable, "request cancelled while queued")
		}
		return
	}
	ans, out, key, hit := s.execute(r.Context(), q)
	s.live.Observe(out)

	if out.Err != nil {
		if out.TimedOut {
			plainError(w, http.StatusServiceUnavailable, "query timed out")
			return
		}
		plainError(w, http.StatusInternalServerError, "evaluation failed: "+out.Err.Error())
		return
	}
	if s.qc != nil {
		state := "miss"
		if hit {
			state = "hit"
		}
		w.Header().Set("X-Sparqld-Cache", state)
	}
	if out.Recovered > 0 {
		// Silent SERVICE recovery happened inside this answer; surface
		// it to the client without failing the response.
		w.Header().Set("X-Sparqld-Recovered", fmt.Sprint(out.Recovered))
	}
	if key != "" {
		// Cache-resident result: reuse (or attach) the serialized body
		// for this content type, with a conditional-GET fast path.
		s.writeCachedBody(w, r, ct, key, ans, q.Type == sparql.AskQuery)
		return
	}
	w.Header().Set("Content-Type", ct+"; charset=utf-8")
	_ = writeResult(w, ct, s.ex.Snapshot(), ans, q.Type == sparql.AskQuery)
}

// execute answers q in the evaluation slot the caller acquired, and is
// where a request's cache verdict is decided. A resident entry answers
// without executing (hit); otherwise the Executor runs the query, and a
// clean answer — no error, no deadline truncation, no row-limit
// overflow, no silent SERVICE recovery — is offered to the cache with
// its execution time as the admission cost. key is the answer's cache
// key when it is resident afterwards (a hit, or an admitted fill) and
// empty otherwise; ans is nil when out holds an error. The slot is
// released however execute returns, a panic included: a slot that
// leaked would be capacity gone for the life of the process.
func (s *Server) execute(ctx context.Context, q *sparql.Query) (ans *exec.Answer, out service.QueryOutcome, key string, hit bool) {
	defer s.gate.Release()
	sn := s.ex.Snapshot()
	if s.qc != nil {
		start := time.Now()
		key = s.cacheKey(q)
		if r, ok := s.qc.Get(sn, key); ok {
			// A hit is a served query whose latency is the lookup.
			return r.Answer, service.QueryOutcome{Duration: time.Since(start)}, key, true
		}
	}
	res, out := s.ex.Execute(ctx, q)
	if out.Err != nil {
		return nil, out, "", false
	}
	if s.qc == nil || out.Recovered > 0 || !s.qc.Put(sn, key, qcache.Result{Answer: res.Answer}, out.Duration) {
		key = ""
	}
	return res.Answer, out, key, false
}

// cacheKey is q's result-cache key: the row budget, then the canonical
// query text (variable-renaming- and prefix-invariant, solution
// modifiers included), so alpha-equivalent repeats share one entry.
func (s *Server) cacheKey(q *sparql.Query) string {
	return s.keyPrefix + sparql.QueryString(q)
}

// writeCachedBody serves a cache-resident result. On a body hit the
// response is the stored bytes verbatim — a near-zero-alloc Write that
// reads no cell of the answer — with a strong ETag; If-None-Match turns
// it into an empty 304. On the first serve of a content type the body
// is serialized once into a pooled buffer, attached to the entry (the
// cache copies it and takes the ETag in the same pass), and written
// out from that buffer.
func (s *Server) writeCachedBody(w http.ResponseWriter, r *http.Request, ct, key string, ans *exec.Answer, isAsk bool) {
	body, etag, ok := s.qc.Body(key, ct)
	if !ok {
		e := newEncoder(nil)
		defer e.release()
		e.encode(ct, s.ex.Snapshot(), ans, isAsk)
		body = e.buf
		// SetBody may refuse (entry evicted mid-request, body over the
		// entry cap); the buffered bytes still serve this response.
		etag, ok = s.qc.SetBody(key, ct, body)
	}
	w.Header().Set("Content-Type", ct+"; charset=utf-8")
	if ok {
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	_, _ = w.Write(body)
}

// logRequest appends one Apache-style log line for the request. The
// shape matches core.FormatApache's query= extraction, so the file the
// server writes is directly analyzable by
// `sparqlanalyze -log FILE -format apache`.
func (s *Server) logRequest(r *http.Request, raw string) {
	if s.logW == nil {
		return
	}
	line := fmt.Sprintf("%s - - [%s] \"GET /query?query=%s HTTP/1.1\" 200 -\n",
		remoteHost(r), time.Now().Format("02/Jan/2006:15:04:05 -0700"), url.QueryEscape(raw))
	s.logMu.Lock()
	_, _ = io.WriteString(s.logW, line)
	s.logMu.Unlock()
}

func remoteHost(r *http.Request) string {
	if r.RemoteAddr == "" {
		return "-"
	}
	return r.RemoteAddr
}

func plainError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintln(w, msg)
}

// Shutdown-friendly helper: ListenAndServe wires the handler into an
// http.Server the caller owns, so cmd/sparqld can drive graceful
// shutdown.
func (s *Server) NewHTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
}

// Serve runs the HTTP server until ctx is cancelled, then drains with
// a grace period.
func (s *Server) Serve(ctx context.Context, hs *http.Server) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shctx)
	}
}
