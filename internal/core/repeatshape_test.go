package core

import (
	"fmt"
	"reflect"
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
// oracle's, and its cost to no allocation: the label is a slice of the
// table of every label.
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
	if n := testing.AllocsPerRun(100, func() { RepeatShape(q, &f) }); n != 0 {
		t.Errorf("RepeatShape allocates %v objects, want 0 (the label is the table's)", n)
	}
	t.Logf("%d distinct texts, %d labels agree with the oracle", len(seen), len(labels))
}

// TestShapeCodesExhaustive walks all 8,320 repeat codes: splitting and
// joining each round-trips, the code of a query and scan built from its
// form, triple bucket and flags is that code, and its label is the fmt
// oracle's spelling. Which of the six keywords sets the agg flag,
// whether a triple is a path, and counts past the last bucket rotate
// with the code.
func TestShapeCodesExhaustive(t *testing.T) {
	if shapeCodes != 8320 {
		t.Fatalf("%d repeat codes, want 8,320", shapeCodes)
	}
	flagKw := [...][]analysis.Keyword{
		{analysis.KwDistinct},
		{analysis.KwFilter},
		{analysis.KwOpt},
		{analysis.KwUnion},
		{analysis.KwCount, analysis.KwMax, analysis.KwMin, analysis.KwAvg, analysis.KwSum, analysis.KwGroupBy},
		{analysis.KwOrderBy},
		{analysis.KwLimit},
	}
	forms := [...]sparql.QueryType{sparql.SelectQuery, sparql.AskQuery, sparql.ConstructQuery, sparql.DescribeQuery, 9}
	for c := shapeCode(1); int(c) <= shapeCodes; c++ {
		form, b, flags := c.split()
		if form >= len(forms) || b >= SizeHistBuckets || flags >= repeatFlagSets || joinShape(form, b, flags) != c {
			t.Fatalf("code %d splits into form %d, bucket %d, flags %b", c, form, b, flags)
		}
		q := &sparql.Query{Type: forms[form]}
		tc := b
		if b == SizeHistBuckets-1 {
			tc += int(c) % 5
		}
		f := analysis.Features{Paths: min(tc, int(c)%2)}
		f.Triples = tc - f.Paths
		for i, kws := range flagKw {
			if flags&(1<<i) != 0 {
				kw := kws[int(c)%len(kws)]
				f.Keywords |= 1 << kw
			}
		}
		// Keywords outside every flag change no code.
		f.Keywords |= 1 << analysis.KwGraph
		if got := shapeOf(q, &f); got != c {
			t.Fatalf("code %d: the query of its parts has code %d", c, got)
		}
		if got, want := c.label(), refRepeatShape(q, &f); got != want {
			t.Fatalf("code %d: label %q, oracle %q", c, got, want)
		}
	}
}

// TestRepeatsCountedByCode checks the repeat-rate table, counted by
// shape code and spelled when reports merge or are handed out, against
// one counted by label straight from the fmt oracle: AnalyzeLog's, a
// two-slot LiveAnalyzer's Report (asked twice, as a Report must leave
// the slots' counts as they were) and a Merge of the two halves of the
// log. Counting an entry allocates nothing once a report counts by code.
func TestRepeatsCountedByCode(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	for _, ds := range loggen.GenerateCorpus(1e-4, 1)[:4] {
		want := map[string]RepeatStat{}
		seen := map[string]bool{}
		for _, e := range ds.Entries {
			if !looksLikeQuery(e) {
				continue
			}
			q, err := sparql.Parse(e)
			if err != nil {
				continue
			}
			f := analysis.Scan(q)
			label := refRepeatShape(q, &f)
			s := want[label]
			s.Total++
			if !seen[e] {
				seen[e] = true
				s.Unique++
			}
			want[label] = s
		}
		opts := Options{SkipShapes: true}
		check := func(how string, rep *DatasetReport) {
			t.Helper()
			if !reflect.DeepEqual(rep.Repeats, want) || rep.byShape != nil {
				t.Fatalf("%s %s: Repeats = %v (pending %v), oracle %v", ds.Name, how, rep.Repeats, rep.byShape != nil, want)
			}
		}
		check("AnalyzeLog", AnalyzeLog(ds.Name, ds.Entries, opts))
		la := NewLiveAnalyzer(ds.Name, opts, 2)
		for _, e := range ds.Entries {
			la.Add(e)
		}
		check("Report", la.Report())
		check("second Report", la.Report())
		half := len(ds.Entries) / 2
		merged := NewCorpusReport(ds.Name)
		first, second := AnalyzeLog(ds.Name, ds.Entries[:half], Options{KeepDuplicates: true}), AnalyzeLog(ds.Name, ds.Entries[half:], Options{KeepDuplicates: true})
		merged.Merge(first)
		merged.Merge(second)
		for label, s := range want {
			if got := merged.Repeats[label]; got.Total != s.Total || got.Unique != s.Total {
				t.Fatalf("%s Merge: %s counts %+v, oracle %d occurrences", ds.Name, label, got, s.Total)
			}
		}
		if len(merged.Repeats) != len(want) || first.byShape != nil || merged.byShape != nil {
			t.Fatalf("%s Merge: %d labels, oracle %d", ds.Name, len(merged.Repeats), len(want))
		}
	}
	rep := NewCorpusReport("allocs")
	rep.noteShape(1, true)
	if n := testing.AllocsPerRun(100, func() { rep.noteShape(shapeCode(shapeCodes), false) }); n != 0 {
		t.Errorf("noteShape allocates %v objects, want 0", n)
	}
}
