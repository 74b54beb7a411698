package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/engine"
	"sparqlog/internal/eval"
	"sparqlog/internal/lint"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/server"
	"sparqlog/internal/service"
	"sparqlog/internal/sparql"
)

// span is one timed call into a layer's public function. Spans of one
// request share req; parent names the span that, in the running server,
// would enclose this call. Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// time runs f as one span and returns its duration.
func (t *tracer) time(name, parent string, req int, f func()) time.Duration {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{name, parent, req, int64(start), int64(end)})
	return end - start
}

// durations returns every duration recorded under name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// medianUS sets metric to the median of the named spans in microseconds,
// if any were recorded.
func (t *tracer) medianUS(rep *report, metric, name string) {
	if ds := t.durations(name); len(ds) > 0 {
		rep.set(metric, us(median(ds)), "us")
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// sparqld's defaults that the in-process levels reproduce.
func deployedConfig(sn *rdf.Snapshot, cacheBytes int64) server.Config {
	return server.Config{
		Snapshot:    sn,
		Timeout:     5 * time.Second,
		MaxInFlight: 2 * runtime.GOMAXPROCS(0),
		QueueDepth:  64,
		Limits:      eval.Limits{MaxRows: sparqldMaxRows},
		CacheBytes:  cacheBytes,
	}
}

// httpRequest builds req as a handler is given it. The target is a path
// of the benchmark's own making, so building it cannot fail.
func httpRequest(req request) *http.Request {
	hr, err := req.httpRequest("")
	if err != nil {
		panic(err)
	}
	return hr
}

// traceServe replays a fixed sample of the workload's stream on one
// goroutine, in process, calling the layers' public functions in the
// order a request passes them, one span per call. Each onion level
// (parse, lint, canonical text, live analysis, evaluation, executor,
// HTTP handler) runs on instances of its own with the result cache
// off, so that no level's work is saved by the one before it; a second
// pass replays through a handler configured as sparqld is, result cache
// on, for the cost of a request as deployed and of the cache's own
// calls. It then sets the per-layer metrics, the counts among them from
// the /metrics scrape of the end-to-end run that preceded it.
func traceServe(cfg config, wl serveWorkload, run *serveRun, sn *rdf.Snapshot, rep *report) error {
	budget := time.Duration(cfg.seconds * float64(time.Second) / 2)
	// Sample sizes are fixed per workload and shrink with --seconds; the
	// time box below only guards a machine much slower than the reference.
	scaled := func(n int) int { return max(20, int(float64(n)*cfg.seconds/20)) }
	onion, sample := scaled(wl.traceOnion), scaled(wl.traceDeployed)
	st := wl.stream(cfg.seed, run.vocab)
	tr := newTracer(16*onion + sample)
	ctx := context.Background()
	began := time.Now()

	// Onion levels, uncached. Level instances:
	live := core.NewLiveAnalyzer("trace", core.Options{Lint: true}, 1)
	plans, paths := plan.NewCache(sn), pathcomp.NewCache(sn)
	exPlans, exPaths := plan.NewCache(sn), pathcomp.NewCache(sn)
	ex := service.NewExecutor(sn, service.ExecutorOptions{
		Timeout: 5 * time.Second, Plans: exPlans, Paths: exPaths,
		Limits: eval.Limits{MaxRows: sparqldMaxRows}, MaxConcurrent: 2 * runtime.GOMAXPROCS(0),
	})
	uncached := server.New(deployedConfig(sn, -1)).Handler()
	qc := qcache.New(sn, qcache.Options{})
	graph := &engine.GraphEngine{}

	var parseAllocs, evalAllocs, evals, rows, probes, respBytes uint64
	var selfServer, selfService, stageShare []float64
	covered := 0
	for i := 0; i < onion && time.Since(began) < budget*2/3; i++ {
		req := st(i)
		covered++
		var q *sparql.Query
		var perr error
		a0 := mallocs()
		dParse := tr.time("sparql.parse", "server.request", i, func() { q, perr = sparql.Parse(req.query) })
		parseAllocs += mallocs() - a0
		dLive := tr.time("core.live_add", "server.request", i, func() { live.Add(req.query) })
		var dLint, dExec, dEval time.Duration
		var res *eval.Result
		if perr == nil {
			dLint = tr.time("lint.run", "server.request", i, func() { _ = lint.Run(q).Codes() })
			tr.time("sparql.querystring", "eval.query", i, func() { _ = sparql.QueryString(q) })
			// One untimed evaluation first: every timed level below then
			// finds the data it touches equally warm in the CPU's caches,
			// instead of the first level paying for the ones after it.
			_, _ = eval.QueryContext(ctx, sn, q, eval.Limits{MaxRows: sparqldMaxRows, Plans: plans, Paths: paths, Parallel: 1})
			a0 = mallocs()
			evalSpan := "eval.query"
			if q.Type == sparql.DescribeQuery || q.Type == sparql.ConstructQuery {
				evalSpan = "eval.graphform"
			}
			var eerr error
			dEval = tr.time(evalSpan, "service.execute", i, func() {
				res, eerr = eval.QueryContext(ctx, sn, q, eval.Limits{MaxRows: sparqldMaxRows, Plans: plans, Paths: paths, Parallel: 1})
			})
			evalAllocs += mallocs() - a0
			if eerr != nil {
				rep.failed++
				rep.notef("traced evaluation failed: %v\n    %s", eerr, req.query)
				continue
			}
			evals++
			rows += uint64(len(res.Rows))
			probes += uint64(res.Probes)
			dExec = tr.time("service.execute", "server.request", i, func() { ex.Execute(ctx, q) })
			selfService = append(selfService, us(dExec-dEval))
			traceLayers(tr, sn, q, i, graph)
		}
		rec := httptest.NewRecorder()
		hr := httpRequest(req)
		dReq := tr.time("server.request", "", i, func() { uncached.ServeHTTP(rec, hr) })
		respBytes += uint64(rec.Body.Len())
		children := dParse + dLint + dLive + dExec
		selfServer = append(selfServer, us(dReq-children))
		stageShare = append(stageShare, float64(children)/float64(dReq))

		// The cache's own calls, on the answer just computed: fill under
		// the measured cost (so admission decides as it would), then the
		// hit path for what was admitted.
		if res != nil && rec.Code == http.StatusOK {
			key := req.query
			cr := qcache.Result{Vars: res.Vars, Rows: res.Rows, Bool: res.Bool}
			var admitted bool
			tr.time("qcache.put", "eval.query", i, func() { admitted = qc.Put(sn, key, cr, dEval) })
			if admitted {
				tr.time("qcache.get_hit", "eval.query", i, func() { qc.Get(sn, key) })
				if _, ok := qc.SetBody(key, req.accept, rec.Body.Bytes()); ok {
					tr.time("qcache.body", "server.request", i, func() { qc.Body(key, req.accept) })
				}
			}
		}
	}

	// As deployed: default cache, warmed as the end-to-end run warms it.
	deployed := server.New(deployedConfig(sn, 0)).Handler()
	etags := map[string]string{}
	serve := func(i int, record bool) {
		req := st(i)
		hr := httpRequest(req)
		key := req.query + "\x00" + req.accept
		if req.cond && etags[key] != "" {
			hr.Header.Set("If-None-Match", etags[key])
		}
		rec := httptest.NewRecorder()
		if record {
			tr.time("server.deployed", "", i, func() { deployed.ServeHTTP(rec, hr) })
		} else {
			deployed.ServeHTTP(rec, hr)
		}
		if etag := rec.Header().Get("ETag"); etag != "" {
			etags[key] = etag
		}
	}
	warm := max(wl.warmMin, sample)
	for i := 0; i < warm && time.Since(began) < budget*5/6; i++ {
		serve(i, false)
	}
	for i := warm; i < warm+sample && time.Since(began) < budget; i++ {
		serve(i, true)
	}
	rep.notef("traced replay: %d requests through the uncached levels, %d through the deployed handler, in %v",
		covered, len(tr.durations("server.deployed")), time.Since(began).Round(time.Millisecond))

	tr.medianUS(rep, "sparql.parse_us", "sparql.parse")
	tr.medianUS(rep, "sparql.querystring_us", "sparql.querystring")
	tr.medianUS(rep, "lint.run_us", "lint.run")
	tr.medianUS(rep, "core.live_add_us", "core.live_add")
	tr.medianUS(rep, "plan.for_us", "plan.for")
	tr.medianUS(rep, "pathcomp.compile_us", "pathcomp.compile")
	tr.medianUS(rep, "engine.cq_us", "engine.cq")
	tr.medianUS(rep, "eval.query_us", "eval.query")
	tr.medianUS(rep, "eval.graphform_us", "eval.graphform")
	tr.medianUS(rep, "qcache.put_us", "qcache.put")
	tr.medianUS(rep, "qcache.get_hit_us", "qcache.get_hit")
	tr.medianUS(rep, "qcache.body_us", "qcache.body")
	tr.medianUS(rep, "service.execute_us", "service.execute")
	tr.medianUS(rep, "server.request_us", "server.request")
	tr.medianUS(rep, "server.deployed_us", "server.deployed")
	if covered > 0 {
		rep.set("sparql.parse_allocs", float64(parseAllocs)/float64(covered), "count")
		rep.set("server.resp_bytes_per_op", float64(respBytes)/float64(covered), "B")
		rep.set("server.self_us", median(selfServer), "us")
		rep.set("trace.stage_sum_share", median(stageShare), "ratio")
		if over := median(stageShare); over > 1.05 {
			rep.notef("WARNING: parse+lint+live_add+execute is %.0f%% of server.request at the median: the stages exceed their parent by more than 5%%", 100*over)
		}
	}
	if evals > 0 {
		rep.set("eval.query_allocs", float64(evalAllocs)/float64(evals), "count")
		rep.set("eval.rows_per_query", float64(rows)/float64(evals), "count")
		rep.set("service.self_us", median(selfService), "us")
	}
	if rows > 0 {
		rep.set("exec.probes_per_row", float64(probes)/float64(rows), "count")
	}

	// What the spans do not explain of the latency a client saw: the
	// loopback transport, net/http on both sides and the load generator.
	if dep := tr.durations("server.deployed"); len(dep) > 0 {
		e2e := percentile(run.open.lat, 50)
		inproc := median(dep)
		rep.set("http.transport_us", us(e2e-inproc), "us")
		rep.set("trace.unexplained_share", float64(e2e-inproc)/float64(e2e), "ratio")
	}
	setCounters(rep, run)
	return tr.write(filepath.Join(cfg.traceDir, "trace-"+wl.name+".json"))
}

// traceLayers times the planner, the path compiler and the conjunctive
// engine directly, on the parts of the query they would be given.
func traceLayers(tr *tracer, sn *rdf.Snapshot, q *sparql.Query, req int, graph *engine.GraphEngine) {
	resolve := resolver(sn, q)
	for _, pp := range q.PathPatterns() {
		if !sparql.IsTrivialPath(pp.Path) {
			tr.time("pathcomp.compile", "eval.query", req, func() { pathcomp.Compile(sn, pp.Path, resolve) })
		}
	}
	if cq, ok := conjunctive(q, resolve); ok {
		tr.time("plan.for", "eval.query", req, func() { plan.For(sn, cq.Atoms, cq.NumVars) })
		tr.time("engine.cq", "", req, func() { graph.ExecuteContext(context.Background(), sn, cq) })
	}
}

// resolver maps IRI text as written in q — absolute or prefixed — to
// store IDs.
func resolver(sn *rdf.Snapshot, q *sparql.Query) func(string) (rdf.ID, bool) {
	prefixes := map[string]string{}
	for _, p := range q.Prologue.Prefixes {
		prefixes[p.Name] = p.IRI
	}
	return func(iri string) (rdf.ID, bool) {
		if i := strings.IndexByte(iri, ':'); i >= 0 && !strings.Contains(iri, "://") {
			if base, ok := prefixes[iri[:i]]; ok {
				iri = base + iri[i+1:]
			}
		}
		return sn.Lookup(iri)
	}
}

// conjunctive returns the CQ form of a query whose WHERE clause is a
// plain basic graph pattern over known constants: what the planner and
// the conjunctive engines work on, with no SPARQL front end.
func conjunctive(q *sparql.Query, resolve func(string) (rdf.ID, bool)) (engine.CQ, bool) {
	g, ok := q.Where.(*sparql.Group)
	if !ok || len(g.Elems) < 2 {
		return engine.CQ{}, false
	}
	vars := map[string]int{}
	ref := func(t sparql.Term) (engine.TermRef, bool) {
		switch t.Kind {
		case sparql.TermVar:
			if _, seen := vars[t.Value]; !seen {
				vars[t.Value] = len(vars)
			}
			return engine.V(vars[t.Value]), true
		case sparql.TermIRI:
			id, ok := resolve(t.Value)
			return engine.C(id), ok
		}
		return engine.TermRef{}, false
	}
	cq := engine.CQ{Ask: q.Type == sparql.AskQuery}
	for _, e := range g.Elems {
		tp, ok := e.(*sparql.TriplePattern)
		if !ok {
			return engine.CQ{}, false
		}
		s, ok1 := ref(tp.S)
		p, ok2 := ref(tp.P)
		o, ok3 := ref(tp.O)
		if !ok1 || !ok2 || !ok3 {
			return engine.CQ{}, false
		}
		cq.Atoms = append(cq.Atoms, engine.Atom{S: s, P: p, O: o})
	}
	cq.NumVars = len(vars)
	return cq, true
}

// setCounters sets the per-layer counts that sparqld itself keeps, from
// the /metrics scrape taken right after the end-to-end phases, and the
// load generator's own lateness.
func setCounters(rep *report, run *serveRun) {
	c := func(name string) float64 { return run.counters["sparqld_"+name] }
	ratio := func(metric string, hits, misses float64) {
		if hits+misses > 0 {
			rep.set(metric, hits/(hits+misses), "ratio")
		}
	}
	ratio("plan.cache_hit_ratio", c("plan_cache_hits_total"), c("plan_cache_misses_total"))
	ratio("pathcomp.cache_hit_ratio", c("path_cache_hits_total"), c("path_cache_misses_total"))
	hits, misses := c("result_cache_hits_total"), c("result_cache_misses_total")
	ratio("qcache.hit_ratio", hits, misses)
	ratio("qcache.body_hit_ratio", c("result_cache_body_hits_total"), hits-c("result_cache_body_hits_total"))
	rep.set("qcache.evictions", c("result_cache_evictions_total"), "count")
	rep.set("qcache.rejected", c("result_cache_rejected_total"), "count")
	rep.set("qcache.bytes", c("result_cache_bytes"), "B")
	rep.set("service.timeouts", c("query_timeouts_total"), "count")
	rep.set("server.rejected_503", c("queries_rejected_total"), "count")
	if len(run.open.late) > 0 {
		rep.set("loadgen.lateness_p99_ms", ms(percentile(run.open.late, 99)), "ms")
	}
}
