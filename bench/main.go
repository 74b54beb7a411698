// Command bench is sparqlbench: the end-to-end benchmark of this
// repository. It builds cmd/sparqld and cmd/sparqlanalyze from the
// checkout it runs in, feeds them generated inputs only, measures them
// from outside as child processes, checks their answers, and prints the
// metrics BENCHMARK.json names. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash bench/run.sh --workload serve-log-mix --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1              # all four workloads
//	bash bench/run.sh --seed 1 --trace 1    # per-layer metrics, writes trace.json
//	bash bench/run.sh --seed 1 --repeat 5   # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	root     string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (end-to-end run at half length, then an in-process traced replay) instead of the end-to-end ones")
	flag.IntVar(&o.repeat, "repeat", 1, "run everything this many times and print the spread of each end-to-end metric against its bound")
	flag.StringVar(&o.root, "root", ".", "checkout to build and measure")
	flag.StringVar(&o.out, "out", "", "directory for generated files (default: a temporary directory under <root>/.bench_build, removed on exit)")
	flag.Parse()
	o.trace = *trace == 1

	killChildrenOnSignal()
	code, err := run(os.Stdout, o)
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run does what the flags ask, writing results to w, and returns the
// exit code: 0, or 1 for an error, 2 for bad usage, 3 when more than 1%
// of a workload's operations failed.
func run(w io.Writer, o options) (int, error) {
	spec, err := readSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	names := spec.workloadNames()
	if o.workload != "" {
		if !slices.Contains(names, o.workload) {
			return 2, fmt.Errorf("unknown workload %q; BENCHMARK.json names %v", o.workload, names)
		}
		names = []string{o.workload}
	}

	build := filepath.Join(o.root, ".bench_build")
	binDir := filepath.Join(build, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 1, err
	}
	buildTime, err := buildBinaries(o.root, binDir)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "bench.build_s: %.3f\n", buildTime.Seconds())

	// A traced run's trace-<workload>.json outlives the run: beside the
	// generated files when -out names a place for them, else in .bench_build.
	out, traceDir := o.out, o.out
	if out == "" {
		traceDir = build
		if out, err = os.MkdirTemp(build, "run-"); err != nil {
			return 1, err
		}
		defer os.RemoveAll(out)
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return 1, err
	}
	cfg := config{binDir: binDir, outDir: out, traceDir: traceDir, seed: o.seed, seconds: o.seconds, scale: fullScale, trace: o.trace}

	driver := o.workload != "" && o.repeat == 1
	var all [][]*report // per repetition, per workload
	for n := 0; n < o.repeat; n++ {
		var reps []*report
		for _, name := range names {
			rep, err := runWorkload(cfg, name)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", name, err)
			}
			if err := spec.check(rep, o.trace); err != nil {
				return 1, err
			}
			reps = append(reps, rep)
			if !driver {
				rep.print(w)
			}
		}
		all = append(all, reps)
	}
	if o.repeat > 1 {
		printSpread(w, spec, all)
	}
	if driver {
		if err := all[0][0].printResult(w); err != nil {
			return 1, err
		}
	}
	for _, reps := range all {
		for _, rep := range reps {
			if float64(rep.failed) > 0.01*float64(rep.attempted) {
				return 3, fmt.Errorf("%s: %d of %d operations failed", rep.workload, rep.failed, rep.attempted)
			}
		}
	}
	return 0, nil
}

// runWorkload runs one workload once: the end-to-end measurement, the
// answer check and, when tracing, the in-process replay.
func runWorkload(cfg config, name string) (*report, error) {
	rep := &report{workload: name, metrics: map[string]metricValue{}}
	t0 := time.Now()
	defer func() { rep.notef("run took %v", time.Since(t0).Round(time.Millisecond)) }()
	if name == studyWorkload {
		return rep, runStudy(cfg, rep)
	}
	for _, wl := range serveWorkloads {
		if wl.name != name {
			continue
		}
		run, err := runServe(cfg, wl, rep)
		if err != nil {
			return nil, err
		}
		st, err := loadStore(run.data, cfg.trace)
		if err != nil {
			return nil, err
		}
		verifySamples(st.sn, run.samples, rep)
		if cfg.trace {
			rep.set("rdf.read_ntriples_s", st.read.Seconds(), "s")
			rep.set("rdf.freeze_s", st.freeze.Seconds(), "s")
			rep.set("rdf.bytes_per_triple", float64(st.heap)/float64(st.triples), "B")
			return rep, traceServe(cfg, wl, run, st.sn, rep)
		}
		return rep, nil
	}
	return nil, fmt.Errorf("no such workload")
}

// printResult writes the notes and then, as the last line, the one JSON
// object the driver reads.
func (r *report) printResult(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
