// Command sparqld is a SPARQL 1.1 Protocol endpoint that analyzes its
// own traffic: every query it serves is appended to an endpoint log in
// the paper's Apache format and fed through the incremental analysis
// pipeline, so /stats always shows the live Table 1/2/4/5-style
// statistics of the workload the server has actually received.
//
// Usage:
//
//	sparqld -data graph.nt -addr :8080
//	sparqld -bib 5000 -timeout 2s -max-inflight 8 -queue 32 -log queries.log
//
// Endpoints:
//
//	/query    SPARQL 1.1 Protocol query operation (GET ?query=, POST
//	          form-encoded, POST application/sparql-query); results
//	          negotiate to JSON, XML, CSV, or TSV
//	/sparql   alias for /query
//	/stats    live self-analysis (paper-style workload tables)
//	/metrics  Prometheus-style text metrics
//	/healthz  liveness probe
//
// The -log file is written in core.FormatApache, so it can be replayed
// through cmd/sparqlog for offline analysis of the served workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "N-Triples data file")
	bib := flag.Int("bib", 0, "generate a gMark Bib graph of this many nodes instead of loading data")
	seed := flag.Int64("seed", 1, "generator seed for -bib")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query evaluation deadline; 0 = only client disconnect bounds a query")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent evaluations (0 = 2x GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admitted requests that may wait for an evaluation slot; beyond it 503")
	maxRows := flag.Int("max-rows", 1_000_000, "row cap per query result (0 = unlimited)")
	maxQueryBytes := flag.Int64("max-query-bytes", server.DefaultMaxQueryBytes, "largest accepted query text")
	cacheBytes := flag.Int64("cache-bytes", qcache.DefaultMaxBytes, "result cache byte budget (0 = disable result caching)")
	cacheMinCost := flag.Duration("cache-min-cost", qcache.DefaultMinCost, "admission cost floor: only cache results whose execution took at least this long, on their query's second sighting (0 = cache every successful result on its first fill)")
	logFile := flag.String("log", "", "append one Apache-format endpoint log line per request to this file")
	dedup := flag.String("dedup", "exact", "self-analysis dedup mode: exact, structural, or keep (no dedup)")
	name := flag.String("name", "sparqld", "corpus label in /stats")
	flag.Parse()

	var opts core.Options
	switch *dedup {
	case "exact":
	case "structural":
		opts.StructuralDedup = true
	case "keep":
		opts.KeepDuplicates = true
	default:
		fmt.Fprintln(os.Stderr, "sparqld: -dedup must be exact, structural, or keep")
		os.Exit(2)
	}

	var sn *rdf.Snapshot
	switch {
	case *bib > 0:
		g := gmark.Generate(gmark.Config{Nodes: *bib, Seed: *seed})
		sn = g.Snapshot
		fmt.Fprintf(os.Stderr, "generated Bib graph: %d triples\n", g.Triples)
	case *data != "":
		f, err := os.Open(*data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqld:", err)
			os.Exit(1)
		}
		st := rdf.NewStore()
		start := time.Now()
		n, err := st.ReadNTriples(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqld:", err)
			os.Exit(1)
		}
		read := time.Since(start)
		sn = st.Freeze()
		fmt.Fprintf(os.Stderr, "loaded %d triples (%d lines) in %.2fs read + %.2fs freeze\n",
			sn.Len(), n, read.Seconds(), (time.Since(start) - read).Seconds())
	default:
		fmt.Fprintln(os.Stderr, "sparqld: provide -data or -bib")
		os.Exit(2)
	}

	cfg := server.Config{
		Snapshot:      sn,
		Timeout:       *timeout,
		MaxInFlight:   *maxInflight,
		QueueDepth:    *queue,
		MaxQueryBytes: *maxQueryBytes,
		Limits:        eval.Limits{MaxRows: *maxRows},
		Analyzer:      opts,
		CorpusName:    *name,
	}
	// Flag semantics: 0 turns the feature off / admits everything; the
	// Config encodes those as negatives (0 there means "default").
	switch {
	case *cacheBytes == 0:
		cfg.CacheBytes = -1
	default:
		cfg.CacheBytes = *cacheBytes
	}
	switch {
	case *cacheMinCost == 0:
		cfg.CacheMinCost = -1
	default:
		cfg.CacheMinCost = *cacheMinCost
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if *logFile != "" {
		f, err := os.OpenFile(*logFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqld:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.LogWriter = f
	}

	srv := server.New(cfg)
	hs := srv.NewHTTPServer(*addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "sparqld listening on %s (timeout %v, queue %d)\n", *addr, *timeout, *queue)
	if err := srv.Serve(ctx, hs); err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
}
