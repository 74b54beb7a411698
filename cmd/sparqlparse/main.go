// Command sparqlparse parses a single SPARQL query (from the command line
// or stdin) and dumps its classification: query type, keyword usage,
// operator set, fragment membership, shape, and widths.
//
// Usage:
//
//	sparqlparse 'SELECT * WHERE { ?s ?p ?o }'
//	echo 'ASK { ?a <p> ?b . ?b <p> ?a }' | sparqlparse
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"sparqlog/internal/analysis"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

func main() {
	var src string
	if len(os.Args) > 1 {
		src = strings.Join(os.Args[1:], " ")
	} else {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqlparse:", err)
			os.Exit(1)
		}
		src = string(b)
	}
	q, err := sparql.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse error:", err)
		os.Exit(1)
	}
	fmt.Println("type:        ", q.Type)
	fmt.Println("normalized:  ", q.String())
	f := analysis.Scan(q)
	sc := sparql.ScopeOf(q)
	fmt.Println("triples:     ", f.TripleCount())
	fmt.Println("operator set:", f.Operators.Key())
	fmt.Println("projection:  ", analysis.Projection(sc))
	frag := analysis.ClassifyFragments(&f, sc)
	fmt.Printf("fragments:    AOF=%v CQ=%v CPF=%v CQF=%v well-designed=%v CQOF=%v (interface width %d)\n",
		frag.AOF, frag.CQ, frag.CPF, frag.CQF, frag.WellDesigned, frag.CQOF, frag.InterfaceWidth)
	if q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery || q.Where == nil {
		return
	}
	triples := q.Triples()
	collapses := f.Collapses
	if frag.HasVarPredicate {
		h := shapes.CanonicalHypergraph(triples, shapes.Options{CollapseEqual: collapses})
		fmt.Printf("hypergraph:   %d vertices, %d edges\n", h.N(), h.NumEdges())
		if d, ok := h.GHW(3); ok {
			fmt.Printf("ghw:          %d (decomposition nodes: %d)\n", d.Width, d.Nodes)
		} else {
			fmt.Println("ghw:          > 3 or too large for exact search")
		}
		return
	}
	g, _ := shapes.CanonicalGraph(triples, shapes.Options{CollapseEqual: collapses})
	r := shapes.Classify(g)
	fmt.Printf("graph:        %d nodes, %d edges\n", g.N(), g.M())
	fmt.Println("shape:       ", r.CumulativeClass())
	fmt.Println("treewidth:   ", r.Treewidth)
	if r.Girth > 0 {
		fmt.Println("girth:       ", r.Girth)
	}
	if a, ok := g.Anatomy(); ok && (a.Petals > 0 || a.Stems > 0) {
		fmt.Printf("flower:       %d petals, %d stamens, %d stems\n", a.Petals, a.Stamens, a.Stems)
	}
}
