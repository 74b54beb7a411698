package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"sparqlog/internal/rdf"
)

// setupRepeats is how many times a run performs the set-up it times;
// setup_s is the median.
const setupRepeats = 3

// config is what one run of one workload is given.
type config struct {
	binDir string // where the built sparqld and sparqlanalyze are
	outDir string // scratch files of this run
	// traceDir is where a traced run leaves trace-<workload>.json.
	traceDir string
	seed     int64
	seconds  float64
	scale    scale
	trace    bool
}

// scale sizes the inputs. fullScale is what the benchmark reports at;
// the smoke test runs the same code on smallScale.
type scale struct {
	nodes        int     // gMark Bib node budget
	corpusScale  float64 // loggen corpus scale of study-batch
	traceEntries int     // study-log entries the traced replay covers
}

var (
	fullScale  = scale{nodes: 100000, corpusScale: 0.0005, traceEntries: 50000}
	smallScale = scale{nodes: 6000, corpusScale: 0.00003, traceEntries: 3000}
)

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]metricValue
	// notes are printed above the result line: sample counts, validity
	// warnings and the first few failures.
	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metricValue{v, unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serveRun is the measured part of one serve workload: everything the
// untraced run reports, kept so that the traced run can relate its
// in-process spans to it.
type serveRun struct {
	vocab    vocab
	data     string // the N-Triples file sparqld loaded
	open     *phase
	counters map[string]float64 // sparqld's /metrics after the run
	samples  []sampled
}

// runServe measures one serve workload end to end against a fresh
// sparqld child.
func runServe(cfg config, wl serveWorkload, rep *report) (*serveRun, error) {
	data := filepath.Join(cfg.outDir, "bib.nt")
	v, triples, err := writeDataset(data, cfg.scale.nodes, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.notef("dataset: %d nodes, %d triples", cfg.scale.nodes, triples)

	stderr, err := os.Create(filepath.Join(cfg.outDir, "sparqld.stderr"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	var setups []time.Duration
	var srv *sparqld
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.kill()
		}
		srv, err = startSparqld(filepath.Join(cfg.binDir, "sparqld"), data, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup)
	}
	defer srv.kill()
	rep.set("setup_s", median(setups).Seconds(), "s")
	rep.notef("setup_s: median of %v", setups)

	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The traced run spends half its time on the in-process replay.
		total /= 2
	}
	share := func(s float64) time.Duration { return time.Duration(float64(total) * s) }

	c := newClient(srv.base)
	st := wl.stream(cfg.seed, v)
	var next atomic.Int64
	warm := runClosed(c, st, &next, share(warmShare), wl.warmMin)
	stopCPU := srv.sampleCPU(share(closedShare) / closedWindows)
	closed := runClosed(c, st, &next, share(closedShare), 0)
	cpu := stopCPU()
	open := runOpen(c, st, &next, share(openShare), wl.openRate)
	run := &serveRun{vocab: v, data: data, open: open}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	if run.counters, err = srv.scrapeMetrics(); err != nil {
		return nil, err
	}
	srv.kill()
	c.hc.CloseIdleConnections()

	rep.attempted = closed.attempted + open.attempted
	rep.failed = closed.failed + open.failed + warm.failed
	rep.notef("warm-up: %v", warm)
	rep.notef("closed loop, %d clients: %v", clients, closed)
	rep.notef("open loop, %d req/s: %v", wl.openRate, open)
	for _, f := range slices.Concat(warm.failures, closed.failures, open.failures) {
		rep.notef("FAILED %s", f)
	}

	// The sandbox slows down for seconds at a time, by up to a third, and
	// never speeds up: the rate and the CPU per request are those of the
	// best of the closed loop's windows, which over ten runs spread half
	// as much as the medians over windows do. A tail is the median over
	// windows; a p50 is a median already.
	perWindow := windowCounts(closed.okDone, share(closedShare), closedWindows)
	rep.set("ops_per_s", slices.Max(perWindow)/share(closedShare).Seconds()*closedWindows, "1/s")
	rep.notef("ops_per_s: the best of %d windows with %v correct answers", closedWindows, perWindow)
	rep.set("latency_p50_ms", ms(percentile(open.lat, 50)), "ms")
	tails, fewest := windowPercentiles(open.due, open.lat, share(openShare), openWindows, wl.tailPct)
	rep.set("e2e.latency_tail_ms", ms(median(tails)), "ms")
	rep.notef("open-loop latency ms: p50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f, p99.9 %.3f, max %.3f",
		ms(percentile(open.lat, 50)), ms(percentile(open.lat, 90)), ms(percentile(open.lat, 95)),
		ms(percentile(open.lat, 99)), ms(percentile(open.lat, 99.9)), ms(percentile(open.lat, 100)))
	rep.notef("e2e.latency_tail_ms: median over %d windows of their p%g %v, %d samples in the smallest window, %d in the phase",
		openWindows, wl.tailPct, tails, fewest, len(open.lat))
	if beyond := float64(fewest) * (100 - wl.tailPct) / 100; beyond < 10 {
		rep.notef("WARNING: only %.1f samples lie beyond p%g in the smallest window", beyond, wl.tailPct)
	}
	perOp := cpuPerOp(cpu, closed)
	if len(perOp) == 0 {
		return nil, fmt.Errorf("no two readings of sparqld's CPU time with an answer between them")
	}
	rep.set("cpu_ms_per_op", slices.Min(perOp), "ms")
	rep.notef("cpu_ms_per_op: the least of %.4f between readings in the closed loop", perOp)
	rep.set("peak_rss_mb", float64(rss)/(1<<20), "MB")
	for _, k := range []string{"hits", "misses", "body_hits", "rejected", "evictions"} {
		rep.notef("sparqld_result_cache_%s_total: %g", k, run.counters["sparqld_result_cache_"+k+"_total"])
	}
	if len(open.late) > 0 {
		late := percentile(open.late, 99)
		rep.notef("loadgen.lateness_p99_ms: %.3f over %d timed sleeps", ms(late), len(open.late))
		if late > time.Millisecond {
			rep.notef("WARNING: the load generator's timer ran more than 1 ms late at p99; open-loop latencies include that")
		}
	}

	run.samples = append(append(warm.samples, closed.samples...), open.samples...)
	return run, nil
}

// cpuPerOp returns, for every two consecutive readings of the child's CPU
// time taken during the phase, the CPU it used between them per request
// answered between them, in milliseconds.
func cpuPerOp(series []cpuSample, p *phase) []float64 {
	var out []float64
	for i := 1; i < len(series); i++ {
		from, to := series[i-1].at.Sub(p.start), series[i].at.Sub(p.start)
		n := 0
		for _, d := range p.done {
			if d >= from && d < to {
				n++
			}
		}
		if n > 0 {
			out = append(out, ms(series[i].cpu-series[i-1].cpu)/float64(n))
		}
	}
	return out
}

// verifySamples checks every sampled answer against an in-process
// reference evaluation and counts mismatches as failures.
func verifySamples(sn *rdf.Snapshot, samples []sampled, rep *report) {
	refs := map[string]expectation{}
	bad := 0
	for _, s := range samples {
		if err := checkSample(sn, s, refs); err != nil {
			if bad < 5 {
				rep.notef("WRONG ANSWER: %v\n    %s", err, s.req.query)
			}
			bad++
		}
	}
	rep.failed += bad
	rep.notef("answers checked: %d (%d distinct queries), %d wrong", len(samples), len(refs), bad)
}
