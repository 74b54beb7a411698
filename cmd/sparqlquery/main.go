// Command sparqlquery runs SPARQL queries against an N-Triples data
// file using the eval package — a miniature offline SPARQL endpoint
// over the slot-based columnar executor.
//
// Usage:
//
//	sparqlquery -data graph.nt 'SELECT * WHERE { ?s ?p ?o } LIMIT 10'
//	sparqlquery -bib 5000 'PREFIX bib: <http://gmark.bib/p/> ASK { ?p bib:cites ?q }'
//	sparqlquery -bib 5000 -explain 'SELECT ...'     # the operator tree one execution pulled
//	sparqlquery -bib 5000 -timeout 500ms '...'      # per-query deadline
//	sparqlquery -bib 5000 -batch queries.txt -workers 8
//
// With -explain the query executes once, exactly as it would without
// the flag, and the transcript (eval.Explain) renders the operator tree
// that execution pulled: one line per operator — joins, property paths,
// FILTER, BIND, OPTIONAL, UNION, MINUS, VALUES, GRAPH, SERVICE,
// subqueries, the streaming aggregation (rows in, groups out), the ORDER
// BY strategy (bounded heap or full sort) and the slice — with the
// planner's row estimate where it ordered a join and the rows and
// batches each operator emitted. A property path adds its compiled
// automaton, estimated reach and the evaluations it ran. The answer's
// size, probes, time and the result-cache key close it. If the
// execution fails (-timeout, the row budget), the transcript shows the
// tree as far as it ran and the command exits 1.
//
// With -batch FILE the queries in FILE (one per line; blank lines and
// #-comments skipped) run as a workload through the service layer's
// worker pool. The summary reports throughput and latency percentiles.
// -batch and -explain do not combine (exit 2).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/service"
	"sparqlog/internal/sparql"
)

func main() {
	data := flag.String("data", "", "N-Triples data file")
	bib := flag.Int("bib", 0, "generate a gMark Bib graph of this many nodes instead of loading data")
	seed := flag.Int64("seed", 1, "generator seed for -bib")
	explain := flag.Bool("explain", false, "execute once and print the operator tree it pulled, with per-operator estimated and actual rows, instead of query results (not with -batch)")
	timeout := flag.Duration("timeout", 0, "per-query evaluation deadline (e.g. 500ms); 0 = none")
	batch := flag.String("batch", "", "file of queries (one per line; blank lines and #-comments skipped) to run as a workload")
	workers := flag.Int("workers", 0, "worker pool size for -batch (0 = GOMAXPROCS)")
	flag.Parse()
	if flag.NArg() < 1 && *batch == "" {
		fmt.Fprintln(os.Stderr, "usage: sparqlquery [-data file.nt | -bib N] [-timeout D] [-batch file -workers N] ['<query>']")
		os.Exit(2)
	}
	if *batch != "" && *explain {
		fmt.Fprintln(os.Stderr, "sparqlquery: -explain explains one query; it does not combine with -batch")
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
			fmt.Fprintln(os.Stderr, "sparqlquery:", err)
			os.Exit(1)
		}
		st := rdf.NewStore()
		start := time.Now()
		n, err := st.ReadNTriples(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqlquery:", err)
			os.Exit(1)
		}
		read := time.Since(start)
		sn = st.Freeze()
		fmt.Fprintf(os.Stderr, "loaded %d triples (%d lines) in %.2fs read + %.2fs freeze\n",
			sn.Len(), n, read.Seconds(), (time.Since(start) - read).Seconds())
	default:
		fmt.Fprintln(os.Stderr, "sparqlquery: provide -data or -bib")
		os.Exit(2)
	}

	if *batch != "" {
		runBatch(sn, *batch, *workers, *timeout)
		return
	}

	src := strings.Join(flag.Args(), " ")
	q, err := sparql.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse error:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *explain {
		text, err := eval.Explain(ctx, sn, q)
		fmt.Print(text)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explain error:", err)
			os.Exit(1)
		}
		return
	}
	res, err := eval.QueryContext(ctx, sn, q, eval.Limits{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eval error:", err)
		os.Exit(1)
	}
	if q.Type == sparql.AskQuery {
		fmt.Println(res.Bool)
		return
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
}

// runBatch executes the workload file through the service layer's
// worker pool, one line per query on stdout and the summary on stderr.
func runBatch(sn *rdf.Snapshot, path string, workers int, timeout time.Duration) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparqlquery:", err)
		os.Exit(1)
	}
	defer f.Close()
	var queries []*sparql.Query
	var srcs []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := sparql.Parse(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sparqlquery: %s:%d: parse error: %v\n", path, lineNo, err)
			os.Exit(1)
		}
		queries = append(queries, q)
		srcs = append(srcs, line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "sparqlquery:", err)
		os.Exit(1)
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "sparqlquery: batch file has no queries")
		os.Exit(1)
	}

	rep := service.RunQueries(context.Background(), sn, queries, service.QueryOptions{
		Workers: workers,
		Timeout: timeout,
	})
	for i, o := range rep.Outcomes {
		switch {
		case o.TimedOut:
			fmt.Printf("%4d\ttimeout\t%v\t%s\n", i, o.Duration, srcs[i])
		case o.Err != nil:
			fmt.Printf("%4d\terror: %v\t%s\n", i, o.Err, srcs[i])
		case queries[i].Type == sparql.AskQuery:
			fmt.Printf("%4d\task=%v\t%v\t%s\n", i, o.Bool, o.Duration, srcs[i])
		default:
			fmt.Printf("%4d\t%d rows\t%v\t%s\n", i, o.Rows, o.Duration, srcs[i])
		}
	}
	fmt.Fprintf(os.Stderr, "%d queries in %v (%.0f qps), %d timeouts, p50 %v p95 %v p99 %v\n",
		len(queries), rep.Wall, rep.Stats.QPS, rep.Timeouts, rep.Stats.P50, rep.Stats.P95, rep.Stats.P99)
}
