package eval

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// TestLoggenCorpusDifferential runs every SELECT and ASK of the
// calibrated loggen corpus (scale 1e-4, seed 1) through QueryAnswer and
// through the reference, and requires the same projection and the same
// rows in the same order (the same answer, for ASK). The store grows
// from the corpus itself: every triple pattern, with each variable
// replaced by one term per variable name, so most patterns match and
// the corpus's aggregates have groups to fold. The executor may succeed
// where the reference overflows the row budget (streaming LIMIT), never
// the other way round. Each query's Explain transcript must report the
// answer QueryAnswer returned.
func TestLoggenCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	var qs []*sparql.Query
	st := rdf.NewStore()
	for _, ds := range loggen.GenerateCorpus(1e-4, 1) {
		for _, e := range ds.Entries {
			q, err := sparql.Parse(e)
			if err != nil || (q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery) {
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
	aggs, asks, rows, overflowed := 0, 0, 0, 0
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
		text, err := Explain(context.Background(), sn, q)
		answer := fmt.Sprintf("\nanswer: %d rows\n", got.Answer.Len())
		if q.Type == sparql.AskQuery {
			answer = fmt.Sprintf("\nanswer: %v\n", got.Bool)
		}
		if err != nil || !strings.Contains(text, answer) || strings.Contains(text, "may return different results") {
			t.Fatalf("%q: explain (%v) does not report the%s:\n%s", src, err, strings.TrimRight(answer, "\n"), text)
		}
		if q.Type == sparql.AskQuery {
			if got.Bool != want.Bool {
				t.Fatalf("%q: ASK %v, reference %v", src, got.Bool, want.Bool)
			}
			asks++
			continue
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
	t.Logf("%d queries (%d ASK, %d aggregate), %d rows, %d over the reference's row budget", len(qs), asks, aggs, rows, overflowed)
	if aggs == 0 || asks == 0 || rows == 0 {
		t.Fatal("vacuous: no aggregate query, no ASK or no row compared")
	}
}
