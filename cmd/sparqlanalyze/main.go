// Command sparqlanalyze runs the full sparqlog analytics pipeline and
// prints every table and figure of the paper. With -log it streams a
// query log file from disk (plain one-query-per-line or Apache access-log
// format) through the sharded worker pool, never materializing the log;
// without it, it generates the calibrated synthetic corpus first.
//
// Usage:
//
//	sparqlanalyze [-scale 0.0001] [-seed 2017] [-log file] [-valid] [-experiment all]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/engine"
	"sparqlog/internal/repro"
)

func main() {
	scale := flag.Float64("scale", 0.0001, "corpus scale relative to the paper's 180M queries")
	seed := flag.Int64("seed", 2017, "generator seed")
	logFile := flag.String("log", "", "analyze this log file instead of generating a corpus")
	valid := flag.Bool("valid", false, "keep duplicates (appendix Tables 7-9 variant)")
	format := flag.String("format", "plain", "log file format: plain, apache, auto (per-line sniffing)")
	workers := flag.Int("workers", 0, "streaming worker pool size for -log (0 = all cores)")
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, table1, table2, table3, table4, table5, table6, figure1, figure3, figure5, sec44, sec61, sec62, appendix, windows")
	graphNodes := flag.Int("graph-nodes", 20000, "gMark Bib graph size for figure3")
	workload := flag.Int("workload", 20, "queries per chain/cycle workload for figure3")
	timeout := flag.Duration("timeout", 2*time.Second, "per-query engine timeout for figure3")
	flag.Parse()

	cfg := repro.Config{
		Scale:         *scale,
		Seed:          *seed,
		StreakLogSize: 4000,
	}
	figure3 := func() string {
		out, _ := engine.Figure3(*graphNodes, *workload, *seed, *timeout)
		return out
	}

	var lf core.LogFormat
	switch *format {
	case "auto":
		lf = core.FormatAuto
	case "plain":
		lf = core.FormatPlain
	case "apache":
		lf = core.FormatApache
	default:
		fmt.Fprintf(os.Stderr, "sparqlanalyze: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *logFile != "" {
		f, err := os.Open(*logFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqlanalyze:", err)
			os.Exit(1)
		}
		sa := &core.StreamAnalyzer{
			Opts:    core.Options{KeepDuplicates: *valid},
			Workers: *workers,
		}
		rep, err := sa.AnalyzeReader(*logFile, f, lf)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqlanalyze:", err)
			os.Exit(1)
		}
		fmt.Print(repro.LogReport(rep))
		return
	}

	switch *experiment {
	case "all":
		fmt.Print(repro.All(cfg))
		fmt.Println()
		fmt.Print(figure3())
	case "figure3":
		fmt.Print(figure3())
	case "table6":
		fmt.Print(repro.Table6(cfg))
	case "appendix":
		fmt.Print(repro.Appendix(cfg))
	case "windows":
		fmt.Print(repro.Table6Windows(cfg, []int{10, 30, 100}))
	default:
		var c *repro.Corpus
		if *valid {
			c = repro.BuildValidCorpus(cfg)
		} else {
			c = repro.BuildCorpus(cfg)
		}
		switch *experiment {
		case "table1":
			fmt.Print(repro.Table1(c))
		case "table2":
			fmt.Print(repro.Table2(c))
		case "table3":
			fmt.Print(repro.Table3(c))
		case "table4":
			fmt.Print(repro.Table4(c))
		case "table5":
			fmt.Print(repro.Table5(c))
		case "figure1":
			fmt.Print(repro.Figure1(c))
		case "figure5":
			fmt.Print(repro.Figure5(c))
		case "sec44":
			fmt.Print(repro.Section44(c))
		case "sec61":
			fmt.Print(repro.Section61(c))
		case "sec62":
			fmt.Print(repro.Section62(c))
		default:
			fmt.Fprintf(os.Stderr, "sparqlanalyze: unknown experiment %q\n", *experiment)
			os.Exit(2)
		}
	}
}
