// Enginecompare: a miniature Figure 3. It races the graph engine (BG,
// the Blazegraph stand-in) against the relational engine (PG, the
// PostgreSQL stand-in) on gMark chain and cycle workloads of lengths
// 3..8 over a small Bib graph — engine.Figure3 at a size that finishes
// in seconds — and prints one generated query of each shape.
package main

import (
	"fmt"
	"time"

	"sparqlog/internal/engine"
	"sparqlog/internal/gmark"
)

func main() {
	const nodes, perWorkload, seed = 4000, 6, 42
	out, _ := engine.Figure3(nodes, perWorkload, seed, 200*time.Millisecond)
	fmt.Print(out)

	g := gmark.Generate(gmark.Config{Nodes: nodes, Seed: seed})
	fmt.Println("\nsample chain query: ", g.Workload(gmark.Chain, 4, 1, 7)[0].SPARQL)
	fmt.Println("sample cycle query: ", g.Workload(gmark.Cycle, 4, 1, 7)[0].SPARQL)
}
