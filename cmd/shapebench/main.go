// Command shapebench runs the Figure 3 experiment: chain and cycle
// conjunctive-query workloads of lengths 3-8 over a gMark Bib instance,
// executed on the graph engine (Blazegraph stand-in) and the relational
// engine (PostgreSQL stand-in).
//
// Usage:
//
//	shapebench [-nodes 20000] [-workload 20] [-timeout 2s] [-seed 2017]
package main

import (
	"flag"
	"fmt"
	"time"

	"sparqlog/internal/engine"
)

func main() {
	nodes := flag.Int("nodes", 20000, "Bib graph node budget (paper: 100k)")
	workload := flag.Int("workload", 20, "queries per workload (paper: 100)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-query timeout (paper: 300s)")
	seed := flag.Int64("seed", 2017, "generator seed")
	flag.Parse()

	out, _ := engine.Figure3(*nodes, *workload, *seed, *timeout)
	fmt.Print(out)
}
