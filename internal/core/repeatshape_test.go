package core

import (
	"fmt"
	"strings"
	"testing"

	"sparqlog/internal/analysis"
	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// refRepeatShape is RepeatShape written with fmt, the oracle for
// TestRepeatShapeOracle.
func refRepeatShape(q *sparql.Query, f *analysis.Features) string {
	var sb strings.Builder
	switch q.Type {
	case sparql.SelectQuery:
		sb.WriteString("SELECT")
	case sparql.AskQuery:
		sb.WriteString("ASK")
	case sparql.ConstructQuery:
		sb.WriteString("CONSTRUCT")
	case sparql.DescribeQuery:
		sb.WriteString("DESCRIBE")
	default:
		sb.WriteString("OTHER")
	}
	if b := bucket(f.TripleCount()); b == SizeHistBuckets-1 {
		fmt.Fprintf(&sb, "/%d+t", b)
	} else {
		fmt.Fprintf(&sb, "/%dt", b)
	}
	k := f.Keywords
	flag := func(name string, on bool) {
		if on {
			sb.WriteByte('+')
			sb.WriteString(name)
		}
	}
	flag("distinct", k.Has(analysis.KwDistinct))
	flag("filter", k.Has(analysis.KwFilter))
	flag("opt", k.Has(analysis.KwOpt))
	flag("union", k.Has(analysis.KwUnion))
	flag("agg", k.Has(analysis.KwCount) || k.Has(analysis.KwMax) || k.Has(analysis.KwMin) ||
		k.Has(analysis.KwAvg) || k.Has(analysis.KwSum) || k.Has(analysis.KwGroupBy))
	flag("order", k.Has(analysis.KwOrderBy))
	flag("limit", k.Has(analysis.KwLimit))
	return sb.String()
}

// TestRepeatShapeOracle pins RepeatShape's label of every distinct
// valid loggen text at scale 1e-4, seeds 1 and 2017, to the fmt
// oracle's, and its cost to the one allocation of the label.
func TestRepeatShapeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	seen := map[string]bool{}
	labels := map[string]int{}
	for _, seed := range []int64{1, 2017} {
		for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				seen[e] = true
				q, err := sparql.Parse(e)
				if err != nil {
					continue
				}
				f := analysis.Scan(q)
				got, want := RepeatShape(q, &f), refRepeatShape(q, &f)
				if got != want {
					t.Fatalf("%s: RepeatShape = %q, oracle %q", e, got, want)
				}
				labels[got]++
			}
		}
	}
	q, err := sparql.Parse(`SELECT DISTINCT ?s (COUNT(?o) AS ?n) WHERE { { ?s ?p ?o . ?o ?p ?s . ?s ?q ?o . ?o ?q ?s .
		?s ?r ?o . ?o ?r ?s . ?s ?t ?o . ?o ?t ?s . ?s ?u ?o . ?o ?u ?s . ?s ?v ?o . ?o ?v ?s
		OPTIONAL { ?s ?w ?o } FILTER(?s != ?o) } UNION { ?a ?b ?c } } GROUP BY ?s ORDER BY ?s LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	f := analysis.Scan(q)
	if got, want := RepeatShape(q, &f), "SELECT/12+t+distinct+filter+opt+union+agg+order+limit"; got != want {
		t.Fatalf("RepeatShape = %q, oracle %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { RepeatShape(q, &f) }); n != 1 {
		t.Errorf("RepeatShape allocates %v objects, want 1 (the label)", n)
	}
	t.Logf("%d distinct texts, %d labels agree with the oracle", len(seen), len(labels))
}
