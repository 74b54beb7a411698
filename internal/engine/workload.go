package engine

import (
	"fmt"
	"strings"
	"time"

	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
)

// WorkloadStats aggregates one workload execution on one engine, matching
// what Figure 3 reports: average runtime per query (timed-out queries
// contribute the full timeout, as in the paper) and the timeout rate.
type WorkloadStats struct {
	Engine     string
	Queries    int
	Timeouts   int
	TotalNanos int64
	// Results counts total bindings across completed queries.
	Results int64
}

// AvgNanos is the average per-query runtime in nanoseconds.
func (w WorkloadStats) AvgNanos() int64 {
	if w.Queries == 0 {
		return 0
	}
	return w.TotalNanos / int64(w.Queries)
}

// TimeoutRate is the fraction of queries that timed out.
func (w WorkloadStats) TimeoutRate() float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(w.Timeouts) / float64(w.Queries)
}

// RunWorkload executes every query of the workload serially on the engine
// with the per-query timeout.
func RunWorkload(e Engine, sn *rdf.Snapshot, queries []CQ, timeout time.Duration) WorkloadStats {
	stats := WorkloadStats{Engine: e.Name(), Queries: len(queries)}
	for _, q := range queries {
		res := e.Execute(sn, q, timeout)
		stats.TotalNanos += res.Duration.Nanoseconds()
		if res.TimedOut {
			stats.Timeouts++
		} else {
			stats.Results += res.Count
		}
	}
	return stats
}

// Figure3Data carries the engine experiment's measured series.
type Figure3Data struct {
	Lengths   []int
	ChainBG   []int64 // avg ns per workload
	ChainPG   []int64
	CycleBG   []int64
	CyclePG   []int64
	CyclePGTO []float64 // timeout fraction
}

// Figure3 runs the chain/cycle workloads of lengths 3..8 on both engines
// over a gMark Bib graph of the given node budget: perWorkload queries
// per workload, each under the per-query timeout.
func Figure3(nodes, perWorkload int, seed int64, timeout time.Duration) (string, Figure3Data) {
	g := gmark.Generate(gmark.Config{Nodes: nodes, Seed: seed})
	bg := &GraphEngine{}
	pg := &RelationalEngine{}
	data := Figure3Data{}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: chain/cycle workloads on BG (graph engine) vs PG (relational engine)\n")
	fmt.Fprintf(&sb, "Bib graph: %d nodes, %d triples; %d queries per workload; timeout %v\n",
		g.N, g.Triples, perWorkload, timeout)
	fmt.Fprintf(&sb, "%-6s %14s %14s %14s %14s %8s\n", "W-k", "chainBG(ns)", "chainPG(ns)", "cycleBG(ns)", "cyclePG(ns)", "PG t/o")
	for k := 3; k <= 8; k++ {
		chains := g.Workload(gmark.Chain, k, perWorkload, seed+int64(k))
		cycles := g.Workload(gmark.Cycle, k, perWorkload, seed+100+int64(k))
		var chainCQs, cycleCQs []CQ
		for _, q := range chains {
			chainCQs = append(chainCQs, q.CQ)
		}
		for _, q := range cycles {
			cycleCQs = append(cycleCQs, q.CQ)
		}
		cbg := RunWorkload(bg, g.Snapshot, chainCQs, timeout)
		cpg := RunWorkload(pg, g.Snapshot, chainCQs, timeout)
		ybg := RunWorkload(bg, g.Snapshot, cycleCQs, timeout)
		ypg := RunWorkload(pg, g.Snapshot, cycleCQs, timeout)
		data.Lengths = append(data.Lengths, k)
		data.ChainBG = append(data.ChainBG, cbg.AvgNanos())
		data.ChainPG = append(data.ChainPG, cpg.AvgNanos())
		data.CycleBG = append(data.CycleBG, ybg.AvgNanos())
		data.CyclePG = append(data.CyclePG, ypg.AvgNanos())
		data.CyclePGTO = append(data.CyclePGTO, ypg.TimeoutRate())
		fmt.Fprintf(&sb, "W-%-4d %14d %14d %14d %14d %7.0f%%\n",
			k, cbg.AvgNanos(), cpg.AvgNanos(), ybg.AvgNanos(), ypg.AvgNanos(), 100*ypg.TimeoutRate())
	}
	return sb.String(), data
}
