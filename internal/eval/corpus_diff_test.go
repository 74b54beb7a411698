package eval

import (
	"context"
	"strings"
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// TestLoggenCorpusDifferential runs every SELECT of the calibrated
// loggen corpus (scale 1e-4, seed 1) through QueryAnswer and through the
// reference, and requires the same projection and the same rows in the
// same order. The store grows from the corpus itself: every triple
// pattern, with each variable replaced by one term per variable name,
// so most patterns match and the corpus's aggregates have groups to
// fold. The executor may succeed where the reference overflows the row
// budget (streaming LIMIT), never the other way round.
func TestLoggenCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	var qs []*sparql.Query
	st := rdf.NewStore()
	for _, ds := range loggen.GenerateCorpus(1e-4, 1) {
		for _, e := range ds.Entries {
			q, err := sparql.Parse(e)
			if err != nil || q.Type != sparql.SelectQuery {
				continue
			}
			qs = append(qs, q)
			ev := &evaluator{prefixes: q.Prologue.PrefixMap()}
			term := func(tm sparql.Term) string {
				if txt, ok := ev.termText(tm); ok {
					return txt
				}
				name, _ := varName(tm)
				return "urn:var:" + name
			}
			for _, tp := range q.Triples() {
				st.Add(term(tp.S), term(tp.P), term(tp.O))
			}
		}
	}
	sn := st.Freeze()
	lim := Limits{MaxRows: 1000}
	aggs, rows, overflowed := 0, 0, 0
	for _, q := range qs {
		src := sparql.QueryString(q)
		want, werr := queryReference(sn, q, lim)
		got, gerr := QueryAnswer(context.Background(), sn, q, lim)
		if werr != nil {
			overflowed++
			continue
		}
		if gerr != nil {
			t.Fatalf("%q: executor failed where the reference answered: %v", src, gerr)
		}
		if strings.Join(got.Vars, ",") != strings.Join(want.Vars, ",") {
			t.Fatalf("%q: vars %v, reference %v", src, got.Vars, want.Vars)
		}
		gotRows := got.Answer.Rows(sn)
		if len(gotRows) != len(want.Rows) {
			t.Fatalf("%q: %d rows, reference %d", src, len(gotRows), len(want.Rows))
		}
		for i := range gotRows {
			if a, b := strings.Join(gotRows[i], "\x1f"), strings.Join(want.Rows[i], "\x1f"); a != b {
				t.Fatalf("%q: row %d\ncolumnar:  %q\nreference: %q", src, i, a, b)
			}
		}
		if hasAggregates(q) {
			aggs++
		}
		rows += len(gotRows)
	}
	t.Logf("%d SELECTs (%d aggregate), %d rows, %d over the reference's row budget", len(qs), aggs, rows, overflowed)
	if aggs == 0 || rows == 0 {
		t.Fatal("vacuous: no aggregate query or no row compared")
	}
}
