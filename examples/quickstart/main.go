// Quickstart: parse one SPARQL query and run every per-query analysis the
// library offers — the five-minute tour of the sparqlog API.
package main

import (
	"fmt"

	"sparqlog/internal/analysis"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

func main() {
	// The "Locations of archaeological sites" query from the paper's
	// Section 3 (WikiData).
	src := `
	PREFIX wdt: <http://www.wikidata.org/prop/direct/>
	PREFIX wd: <http://www.wikidata.org/entity/>
	PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
	SELECT ?label ?coord ?subj
	WHERE
	{ ?subj wdt:P31/wdt:P279* wd:Q839954 .
	  ?subj wdt:P625 ?coord .
	  ?subj rdfs:label ?label filter(lang(?label)="en")
	}`

	q, err := sparql.Parse(src)
	if err != nil {
		panic(err)
	}
	fmt.Println("query type:    ", q.Type)
	// One walk reads the query's syntax; its Scope, its variables.
	f := analysis.Scan(q)
	sc := sparql.ScopeOf(q)
	fmt.Println("triple patterns:", f.Triples)
	fmt.Println("property paths: ", f.Paths)

	k := f.Keywords
	fmt.Printf("keywords:       Select=%v Filter=%v And=%v\n",
		k.Has(analysis.KwSelect), k.Has(analysis.KwFilter), k.Has(analysis.KwAnd))
	fmt.Println("operator set:  ", f.Operators.Key())
	fmt.Println("projection:    ", analysis.Projection(sc))

	frag := analysis.ClassifyFragments(&f, sc)
	fmt.Printf("fragments:      AOF=%v CQ=%v CQF=%v CQOF=%v\n", frag.AOF, frag.CQ, frag.CQF, frag.CQOF)

	// Shape of the conjunctive part: the two plain triples form a star
	// around ?subj once the path pattern is set aside.
	g, hasVarPred := shapes.CanonicalGraph(q.Triples(), shapes.Options{})
	r := shapes.Classify(g)
	fmt.Printf("canonical graph: %d nodes, %d edges (variable predicates: %v)\n", g.N(), g.M(), hasVarPred)
	fmt.Println("shape:          ", r.CumulativeClass())
	fmt.Println("treewidth:      ", r.Treewidth)

	// Round-trip: the AST serializes back to SPARQL.
	fmt.Println("serialized:     ", q.String())
}
