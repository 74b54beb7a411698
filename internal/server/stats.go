package server

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/lint"
	"sparqlog/internal/repro"
)

// handleStats renders the live self-analysis: serving statistics
// first, then the study of every query this server has been sent,
// printed by the renderers sparqlanalyze -log uses for a log file
// (repro.LogReport), then the static-analysis aggregates.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Conditional GET: the ETag hashes every counter and gauge behind
	// the page (analyzer entries, serving counters, cache state) —
	// deliberately not uptime or qps, which tick continuously without
	// new information. A poller therefore gets 304 until the server
	// actually serves something new. Weak, because the body's derived
	// fields (uptime) do drift between equal-tagged responses.
	etag := s.statsETag()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	rep := s.an.Report()
	snap := s.live.Snapshot()

	var sb strings.Builder
	fmt.Fprintf(&sb, "sparqld live statistics (corpus %q)\n\n", rep.Name)

	fmt.Fprintf(&sb, "Serving\n")
	fmt.Fprintf(&sb, "  uptime            %s\n", snap.Uptime.Round(time.Second))
	fmt.Fprintf(&sb, "  served            %d (errors %d, timeouts %d, rejected %d)\n",
		snap.Served, snap.Errors, snap.Timeouts, snap.Rejected)
	fmt.Fprintf(&sb, "  qps               %.2f\n", snap.QPS)
	fmt.Fprintf(&sb, "  latency           p50 %s  p95 %s  p99 %s  max %s (window %d)\n",
		snap.Stats.P50, snap.Stats.P95, snap.Stats.P99, snap.Stats.Max, snap.Window)
	fmt.Fprintf(&sb, "  silent SERVICE recoveries %d\n", snap.Recoveries)
	if s.qc != nil {
		h, m := s.qc.Hits(), s.qc.Misses()
		ratio := "-"
		if h+m > 0 {
			ratio = fmt.Sprintf("%.2f%%", 100*float64(h)/float64(h+m))
		}
		fmt.Fprintf(&sb, "  result cache      %d hits / %d misses (%s), %d collapsed, %d body reuses\n",
			h, m, ratio, s.qc.Collapsed(), s.qc.BodyHits())
		fmt.Fprintf(&sb, "                    %d entries, %s, %d evictions, %d admission rejections, %d first sightings\n",
			s.qc.Entries(), fmtBytes(s.qc.Bytes()), s.qc.Evictions(), s.qc.Rejected(), s.qc.FirstSightings())
	}
	fmt.Fprintf(&sb, "  in flight         %d (+%d queued)\n\n", s.gate.InFlight(), s.gate.Waiting())

	sb.WriteString(repro.LogReport(rep))
	sb.WriteByte('\n')
	writeLintTable(&sb, rep)

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}

// statsETag derives the /stats entity tag from every counter and gauge
// the page prints, except uptime and qps. fnv64a over their decimal
// rendering: cheap, stable, and computed without building the report.
func (s *Server) statsETag() string {
	snap := s.live.Snapshot()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d",
		s.an.Entries(),
		snap.Served, snap.Errors, snap.Timeouts, snap.Rejected, snap.Recoveries,
		s.gate.InFlight(), s.gate.Waiting())
	if s.qc != nil {
		fmt.Fprintf(h, "|%d|%d|%d|%d|%d|%d|%d|%d|%d",
			s.qc.Hits(), s.qc.Misses(), s.qc.Collapsed(), s.qc.BodyHits(), s.qc.Evictions(),
			s.qc.Entries(), s.qc.Bytes(), s.qc.Rejected(), s.qc.FirstSightings())
	}
	return fmt.Sprintf("W/\"%016x\"", h.Sum64())
}

// fmtBytes renders a byte count human-readably for /stats.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// etagMatch reports whether an If-None-Match header matches etag: "*",
// or a listed entity tag with the same opaque tag. That is the weak
// comparison RFC 9110 §13.1.2 prescribes for If-None-Match: a W/ prefix
// on either side is ignored, so a proxy that weakens a body's strong
// tag (a compressing one does) still revalidates it. Splitting on commas
// is exact for the tags this server issues, which are hex digits.
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	want := strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == want {
			return true
		}
	}
	return false
}

// writeLintTable renders the static-analysis aggregates: per-code
// diagnostic and query counts over the analyzed workload, plus the
// statically-empty tally the evaluator short-circuits on.
func writeLintTable(sb *strings.Builder, rep *core.DatasetReport) {
	if len(rep.Lint) == 0 && rep.LintEmpty == 0 {
		return
	}
	fmt.Fprintf(sb, "Static analysis (of %d unique)\n", rep.Unique)
	fmt.Fprintf(sb, "  %-8s %-28s %10s %10s %8s\n", "Code", "Pass", "Diags", "Queries", "%Q")
	byCode := make(map[string]string)
	for _, p := range lint.Passes() {
		byCode[p.Code] = p.Name
	}
	var codes []string
	for code := range rep.Lint {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(sb, "  %-8s %-28s %10d %10d %8s\n",
			code, byCode[code], rep.Lint[code], rep.LintQueries[code], pct(rep.LintQueries[code], rep.Unique))
	}
	fmt.Fprintf(sb, "  statically empty WHERE: %d (%s)\n\n", rep.LintEmpty, pct(rep.LintEmpty, rep.Unique))
}

// pct renders part/whole as a percentage for the lint table.
func pct(part, whole int) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}
