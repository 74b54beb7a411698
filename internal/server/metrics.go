package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// handleMetrics renders Prometheus-style text metrics of the serving
// path: query counters, latency quantiles over the recent window,
// cache hit counters, admission state, and the self-analysis corpus
// counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.live.Snapshot()
	rep := s.an.Report()

	var sb strings.Builder
	counter := func(name, help string, v any) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}

	counter("sparqld_queries_served_total", "Completed query evaluations (successes, errors and timeouts).", snap.Served)
	counter("sparqld_query_errors_total", "Evaluations that failed with a non-timeout error.", snap.Errors)
	counter("sparqld_query_timeouts_total", "Evaluations cut by the per-request deadline or client disconnect.", snap.Timeouts)
	counter("sparqld_queries_rejected_total", "Requests rejected by admission control (503).", snap.Rejected)
	counter("sparqld_panics_total", "Requests that panicked and were answered with 500.", s.panics.Load())
	counter("sparqld_service_recoveries_total", "Silent SERVICE recoveries inside served answers.", snap.Recoveries)
	gauge("sparqld_qps", "Lifetime completed queries per second.", fmt.Sprintf("%.4f", snap.QPS))

	fmt.Fprintf(&sb, "# HELP sparqld_latency_seconds Query latency quantiles over the recent window.\n")
	fmt.Fprintf(&sb, "# TYPE sparqld_latency_seconds summary\n")
	for _, q := range []struct {
		label string
		v     float64
	}{
		{"0.5", snap.Stats.P50.Seconds()},
		{"0.95", snap.Stats.P95.Seconds()},
		{"0.99", snap.Stats.P99.Seconds()},
	} {
		fmt.Fprintf(&sb, "sparqld_latency_seconds{quantile=%q} %.6f\n", q.label, q.v)
	}

	if s.qc != nil {
		counter("sparqld_result_cache_hits_total", "Result cache lookups answered without executing.", s.qc.Hits())
		counter("sparqld_result_cache_misses_total", "Result cache lookups that executed.", s.qc.Misses())
		counter("sparqld_result_cache_collapsed_total", "Executions avoided by single-flight collapse of concurrent identical queries.", s.qc.Collapsed())
		counter("sparqld_result_cache_body_hits_total", "Serialized response bodies reused verbatim.", s.qc.BodyHits())
		counter("sparqld_result_cache_evictions_total", "Result cache entries evicted by the LRU byte budget.", s.qc.Evictions())
		counter("sparqld_result_cache_rejected_total", "Results refused by the admission cost floor, the entry cap or the shard budget.", s.qc.Rejected())
		counter("sparqld_result_cache_first_sightings_total", "Results not stored because their query was seen for the first time.", s.qc.FirstSightings())
		gauge("sparqld_result_cache_bytes", "Bytes held by the result cache (rows plus serialized bodies).", s.qc.Bytes())
		gauge("sparqld_result_cache_entries", "Resident result cache entries.", s.qc.Entries())
	}
	gauge("sparqld_inflight_queries", "Queries currently evaluating.", s.gate.InFlight())
	gauge("sparqld_queued_queries", "Admitted queries waiting for an evaluation slot.", s.gate.Waiting())

	counter("sparqld_log_entries_total", "Entries fed to the self-analysis stream.", s.an.Entries())
	counter("sparqld_log_valid_total", "Self-analysis: parseable queries (Table 1 Valid).", rep.Valid)
	counter("sparqld_log_unique_total", "Self-analysis: unique queries (Table 1 Unique).", rep.Unique)

	// Static-analysis aggregates, one labeled series per diagnostic
	// code, emitted in sorted order so scrapes are stable.
	fmt.Fprintf(&sb, "# HELP sparqld_lint_diagnostics_total Lint diagnostics found in the analyzed workload, by code.\n")
	fmt.Fprintf(&sb, "# TYPE sparqld_lint_diagnostics_total counter\n")
	var codes []string
	for code := range rep.Lint {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(&sb, "sparqld_lint_diagnostics_total{code=%q} %d\n", code, rep.Lint[code])
	}
	counter("sparqld_lint_empty_queries_total", "Analyzed queries whose WHERE clause is statically empty.", rep.LintEmpty)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}
