package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// corpusRepeats is how many times a run writes the corpus, which takes a
// seventh of a second; setup_s is the median.
const corpusRepeats = 7

// minPasses is the fewest timed analysis passes a study-batch run makes,
// however short --seconds is.
const minPasses = 3

// writeCorpus writes the calibrated corpus at the given scale — every
// dataset's log, noise and malformed entries included — as one plain log
// file, one entry per line, and returns the number of entries.
func writeCorpus(path string, scale float64, seed int64) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	entries := 0
	for _, spec := range loggen.CorpusSpecs(scale, seed) {
		if err := loggen.WriteLog(bw, spec.Profile, spec.N, spec.Seed); err != nil {
			return 0, err
		}
		entries += spec.N
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return entries, f.Close()
}

// pass is one run of `sparqlanalyze -log file`.
type pass struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration
	rss    int64 // bytes
}

func analyze(bin, log string, extra ...string) (pass, error) {
	var out bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-log", log}, extra...)...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	p, err := startProc(cmd)
	if err != nil {
		return pass{}, err
	}
	// Rusage.Maxrss is of no use here: exec folds the peak of the address
	// space the child was forked in — this process's — into it. VmHWM is
	// the new address space's own; it only grows, so the last reading
	// before the child exits is its peak but for the last few milliseconds.
	var rss int64
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	for running := true; running; {
		select {
		case <-p.done:
			running = false
		case <-poll.C:
			if v, err := p.peakRSS(); err == nil {
				rss = v
			}
		}
	}
	wall := time.Since(t0)
	if !cmd.ProcessState.Success() {
		return pass{}, fmt.Errorf("sparqlanalyze: %v", cmd.ProcessState)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return pass{
		stdout: out.Bytes(),
		wall:   wall,
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rss:    rss,
	}, nil
}

// table1Total extracts the Total #Q of Table 1's "Total" row from
// sparqlanalyze's report.
func table1Total(report []byte) (int, error) {
	for _, line := range strings.Split(string(report), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "Total" {
			return strconv.Atoi(f[1])
		}
	}
	return 0, fmt.Errorf("no Total row in the report")
}

// runStudy measures the paper's own workload: the study over one log,
// by sequential passes of the sparqlanalyze binary.
func runStudy(cfg config, rep *report) error {
	log := filepath.Join(cfg.outDir, "study.log")
	var setups []time.Duration
	entries := 0
	for i := 0; i < corpusRepeats; i++ {
		t0 := time.Now()
		n, err := writeCorpus(log, cfg.scale.corpusScale, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		entries = n
	}
	gen := median(setups)
	rep.set("setup_s", gen.Seconds(), "s")
	st, err := os.Stat(log)
	if err != nil {
		return err
	}
	rep.notef("corpus: %d entries, %.1f MB; setup_s: median of %v", entries, float64(st.Size())/1e6, setups)

	bin := filepath.Join(cfg.binDir, "sparqlanalyze")
	ref, err := analyze(bin, log, "-workers", "1")
	if err != nil {
		return err
	}
	wrong := 0
	if total, err := table1Total(ref.stdout); err != nil || total != entries {
		rep.notef("WRONG ANSWER: Table 1 Total is %d (%v), %d entries were written", total, err, entries)
		wrong++
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var passes []pass
	for began := time.Now(); len(passes) < minPasses || time.Since(began).Seconds() < seconds; {
		p, err := analyze(bin, log)
		if err != nil {
			return err
		}
		if !bytes.Equal(p.stdout, ref.stdout) {
			if wrong == 0 {
				rep.notef("WRONG ANSWER: pass %d's report differs from the -workers 1 reference", len(passes))
			}
			wrong++
		}
		passes = append(passes, p)
	}

	var walls, cpus []time.Duration
	var rss int64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rss = max(rss, p.rss)
	}
	// An operation is a log entry; a pass whose report is wrong fails all
	// of its entries.
	rep.attempted = len(passes) * entries
	rep.failed = min(wrong, len(passes)) * entries
	rep.set("ops_per_s", float64(entries)/median(walls).Seconds(), "1/s")
	rep.set("latency_p50_ms", ms(median(walls)), "ms")
	rep.set("e2e.latency_tail_ms", ms(percentile(walls, 75)), "ms")
	rep.set("cpu_ms_per_op", ms(median(cpus))/float64(entries), "ms")
	rep.set("peak_rss_mb", float64(rss)/(1<<20), "MB")
	rep.notef("%d passes over %d entries; latency_p50_ms is the median pass, e2e.latency_tail_ms the upper quartile, cpu_ms_per_op the median pass's CPU", len(passes), entries)
	rep.notef("pass wall times: %v", walls)

	if cfg.trace {
		rep.set("loggen.entries_per_s", float64(entries)/gen.Seconds(), "1/s")
		return traceStudy(cfg, log, rep)
	}
	return nil
}

// traceStudy replays the head of the study log in process, on one
// goroutine: decode, parse and analyse as separate timed steps, then the
// streaming pipeline that does all three, whose own share is what is
// left of its wall time.
func traceStudy(cfg config, log string, rep *report) error {
	f, err := os.Open(log)
	if err != nil {
		return err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() && len(lines) < cfg.scale.traceEntries {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return err
	}

	tr := newTracer(2*len(lines) + 2)
	entries := make([]string, len(lines))
	for i, line := range lines {
		tr.time("core.decode", "", i, func() { entries[i] = core.DecodeEntry(line, core.FormatPlain) })
	}
	// The pipeline deduplicates before it parses, so the separate steps
	// work on first occurrences only, as it does.
	var queries []*sparql.Query
	seen := map[string]bool{}
	parsed := 0
	a0 := mallocs()
	for i, e := range entries {
		if seen[e] {
			continue
		}
		seen[e] = true
		parsed++
		tr.time("sparql.parse", "core.stream", i, func() {
			if q, err := sparql.Parse(e); err == nil {
				queries = append(queries, q)
			}
		})
	}
	parseAllocs := mallocs() - a0
	dAnalyze := tr.time("core.analyze", "core.stream", -1, func() { core.AnalyzeQueries("trace", queries, core.Options{}) })
	sa := &core.StreamAnalyzer{Workers: 1}
	dStream := tr.time("core.stream", "", -1, func() { sa.AnalyzeSeq("trace", slices.Values(entries)) })

	var dParse time.Duration
	for _, d := range tr.durations("sparql.parse") {
		dParse += d
	}
	tr.medianUS(rep, "core.decode_us", "core.decode")
	tr.medianUS(rep, "sparql.parse_us", "sparql.parse")
	rep.set("sparql.parse_allocs", float64(parseAllocs)/float64(parsed), "count")
	rep.set("core.analyze_us_per_entry", us(dAnalyze)/float64(len(entries)), "us")
	rep.set("core.stream_self_share", float64(dStream-dParse-dAnalyze)/float64(dStream), "ratio")
	rep.notef("traced replay: %d entries, %d distinct, %d valid; stream %v = parse %v + analyse %v + own %v",
		len(entries), parsed, len(queries), dStream.Round(time.Millisecond), dParse.Round(time.Millisecond),
		dAnalyze.Round(time.Millisecond), (dStream - dParse - dAnalyze).Round(time.Millisecond))
	return tr.write(filepath.Join(cfg.traceDir, "trace-"+studyWorkload+".json"))
}
