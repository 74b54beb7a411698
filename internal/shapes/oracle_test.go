package shapes

// The string-keyed construction that Builder replaced, kept as the
// oracle for TestBuilderOracleCorpus, TestBuilderPinnedTerms and
// FuzzCanonicalOracle.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sparqlog/internal/analysis"
	"sparqlog/internal/graph"
	"sparqlog/internal/hypergraph"
	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// termKey gives each distinct term a node identity. Variables and blank
// nodes are scoped by name; constants by kind and full value.
func termKey(t sparql.Term) string {
	switch t.Kind {
	case sparql.TermVar:
		return "?" + t.Value
	case sparql.TermBlank:
		return "_:" + t.Value
	case sparql.TermIRI:
		return "<" + t.Value + ">"
	default:
		return "\"" + t.Value + "\"@" + t.Lang + "^^" + t.Datatype
	}
}

// unionFind implements node collapsing for ?x = ?y filters.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: map[string]string{}} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// refCanonicalGraph is the string-keyed CanonicalGraph.
func refCanonicalGraph(triples []*sparql.TriplePattern, opts Options) (*graph.Graph, bool) {
	uf := newUnionFind()
	for _, pair := range opts.CollapseEqual {
		uf.union("?"+pair[0], "?"+pair[1])
	}
	hasVarPred := false
	idx := make(map[string]int)
	nodeOf := func(t sparql.Term) int {
		k := uf.find(termKey(t))
		if i, ok := idx[k]; ok {
			return i
		}
		i := len(idx)
		idx[k] = i
		return i
	}
	type edge struct{ u, v int }
	var edges []edge
	for _, tp := range triples {
		if tp.P.IsVar() {
			hasVarPred = true
		}
		if opts.ExcludeConstants && (!tp.S.IsNodeVar() || !tp.O.IsNodeVar()) {
			continue
		}
		edges = append(edges, edge{nodeOf(tp.S), nodeOf(tp.O)})
	}
	g := graph.New(len(idx))
	for _, e := range edges {
		g.AddEdge(e.u, e.v)
	}
	return g, hasVarPred
}

// refCanonicalHypergraph is the string-keyed CanonicalHypergraph.
func refCanonicalHypergraph(triples []*sparql.TriplePattern, opts Options) *hypergraph.Hypergraph {
	uf := newUnionFind()
	for _, pair := range opts.CollapseEqual {
		uf.union("?"+pair[0], "?"+pair[1])
	}
	idx := make(map[string]int)
	vertexOf := func(t sparql.Term) (int, bool) {
		if !t.IsNodeVar() {
			return 0, false
		}
		k := uf.find(termKey(t))
		if i, ok := idx[k]; ok {
			return i, true
		}
		i := len(idx)
		idx[k] = i
		return i, true
	}
	var pendings [][]int
	for _, tp := range triples {
		var e []int
		for _, t := range []sparql.Term{tp.S, tp.P, tp.O} {
			if v, ok := vertexOf(t); ok {
				e = append(e, v)
			}
		}
		if len(e) > 0 {
			pendings = append(pendings, e)
		}
	}
	h := hypergraph.New(len(idx))
	for _, e := range pendings {
		h.AddEdge(e...)
	}
	return h
}

// sameValue is reflect.DeepEqual over the graph and hypergraph types,
// except that a nil slice equals an empty one: a reused builder hands
// back emptied storage where a fresh build has none.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int:
		return a.Int() == b.Int()
	}
	panic(fmt.Sprintf("sameValue: unexpected kind %v", a.Kind()))
}

// checkBuilder compares b's graph and hypergraph of triples under opts
// with the oracle's, field by field.
func checkBuilder(t *testing.T, name string, b *Builder, triples []*sparql.TriplePattern, opts Options) {
	t.Helper()
	g, varPred := b.Graph(triples, opts)
	rg, rVarPred := refCanonicalGraph(triples, opts)
	if varPred != rVarPred || !sameValue(reflect.ValueOf(g), reflect.ValueOf(rg)) {
		t.Fatalf("%s, %+v: Graph = %+v (var predicate %v), oracle %+v (%v)", name, opts, g, varPred, rg, rVarPred)
	}
	h, rh := b.Hypergraph(triples, opts), refCanonicalHypergraph(triples, opts)
	if !sameValue(reflect.ValueOf(h), reflect.ValueOf(rh)) {
		t.Fatalf("%s, %+v: Hypergraph = %d vertices %v, oracle %d vertices %v", name, opts, h.N(), h.Edges(), rh.N(), rh.Edges())
	}
}

// optionsOf is the three ways the study builds a query's canonical
// (hyper)graphs.
func optionsOf(q *sparql.Query) []Options {
	return []Options{{}, {ExcludeConstants: true}, {CollapseEqual: analysis.Scan(q).Collapses}}
}

// TestBuilderOracleCorpus builds every distinct loggen text at scale
// 1e-4, seeds 1 and 2017, each way the study does, with a fresh builder
// per build and with one builder fed the corpus forwards and then
// backwards, so state one build leaks into the next shows.
func TestBuilderOracleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	seen := map[string]bool{}
	var qs []*sparql.Query
	var texts []string
	for _, seed := range []int64{1, 2017} {
		for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				seen[e] = true
				if q, err := sparql.Parse(e); err == nil {
					qs, texts = append(qs, q), append(texts, e)
				}
			}
		}
	}
	for i, q := range qs {
		for _, opts := range optionsOf(q) {
			checkBuilder(t, texts[i], new(Builder), q.Triples(), opts)
		}
	}
	warm := new(Builder)
	order := make([]int, 0, 2*len(qs))
	for i := range qs {
		order = append(order, i)
	}
	for i := range qs {
		order = append(order, len(qs)-1-i)
	}
	for _, i := range order {
		triples := warm.Triples(qs[i])
		if !slices.Equal(triples, qs[i].Triples()) {
			t.Fatalf("%s: Triples = %v, want %v", texts[i], triples, qs[i].Triples())
		}
		for _, opts := range optionsOf(qs[i]) {
			checkBuilder(t, texts[i], warm, triples, opts)
		}
	}
	t.Logf("%d queries, each built three ways, agree with the oracle fresh and warm", len(qs))
}

// TestBuilderPinnedTerms pins how terms become nodes: by kind and value,
// literals with their language tag and datatype, IRIs whatever their
// written form, and collapse classes through variables the triples
// never mention.
func TestBuilderPinnedTerms(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		opts        Options
		nodes       int
	}{
		{"a variable, a blank label, an IRI and a literal spelled x",
			`SELECT * WHERE { ?x <urn:p> _:x . <x> <urn:p> "x" }`, Options{}, 4},
		{"literals differing only in language tag or datatype",
			`SELECT * WHERE { ?s <urn:p> "x" . ?s <urn:p> "x"@en . ?s <urn:p> "x"^^<urn:dt> . ?s <urn:p> "x"^^<urn:other> }`, Options{}, 5},
		{"a prefixed and a bracketed IRI with one Value",
			`PREFIX foo: <urn:foo#> SELECT * WHERE { ?s <urn:p> foo:bar . ?s <urn:q> <foo:bar> }`, Options{}, 2},
		{"a collapse chain through a variable absent from the triples",
			`SELECT * WHERE { ?x <urn:p> ?a . ?y <urn:q> ?b }`,
			Options{CollapseEqual: [][2]string{{"x", "z"}, {"z", "y"}}}, 3},
	} {
		q, err := sparql.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		triples := q.Triples()
		g, _ := new(Builder).Graph(triples, tc.opts)
		if g.N() != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.name, g.N(), tc.nodes)
		}
		checkBuilder(t, tc.name, new(Builder), triples, tc.opts)
	}
}

// FuzzCanonicalOracle builds the canonical graph and hypergraph of every
// parseable fuzzed text each way the study does, with a fresh builder
// and with one that has built every earlier input, against the oracle.
func FuzzCanonicalOracle(f *testing.F) {
	for _, s := range []string{
		`SELECT * WHERE { ?x <urn:p> ?y . ?y <urn:q> ?x }`,
		`SELECT * WHERE { ?x ?p ?y . ?y ?p _:b . _:b <urn:r> "v"@en }`,
		`SELECT * WHERE { ?x <urn:p> ?y . ?y <urn:p> ?z FILTER(?x = ?z) }`,
		`ASK { ?x <urn:p> ?x OPTIONAL { ?x <urn:q> 1 } }`,
		`PREFIX a: <urn:a#> SELECT * WHERE { a:s a:p <a:s> . ?v a:p "1"^^a:int }`,
	} {
		f.Add(s)
	}
	warm := new(Builder)
	f.Fuzz(func(t *testing.T, text string) {
		q, err := sparql.Parse(text)
		if err != nil {
			return
		}
		for _, opts := range optionsOf(q) {
			checkBuilder(t, text, new(Builder), q.Triples(), opts)
			checkBuilder(t, text, warm, warm.Triples(q), opts)
		}
	})
}
