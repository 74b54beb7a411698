package eval

import (
	"context"
	"fmt"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// TestRegexCompiledOncePerEvaluation pins REGEX's compile to once per
// (pattern, flags) in an evaluation. Over 2,000 rows, a REGEX filter
// may allocate at most two objects per row more than the CONTAINS
// filter that keeps the same rows, where compiling the pattern for
// each row costs 16. The headroom is for the race detector: its sync.Pool drops
// a share of the matchers regexp pools, so a match allocates now and
// then (about 0.75 objects per row under -race, 0.01 without).
func TestRegexCompiledOncePerEvaluation(t *testing.T) {
	const rows = 2000
	st := rdf.NewStore()
	for i := 0; i < rows; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:name", fmt.Sprintf("name-%d", i))
	}
	sn := st.Freeze()
	allocs := func(filter string) float64 {
		q, err := sparql.Parse(`SELECT ?s WHERE { ?s <urn:name> ?n FILTER(` + filter + `) }`)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			res, err := QueryAnswer(context.Background(), sn, q, nil, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			// name-15, name-150..159, name-1500..1599.
			if got := res.Answer.Len(); got != 111 {
				t.Fatalf("%s: %d rows, want 111", filter, got)
			}
		})
	}
	regex, contains := allocs(`REGEX(?n, "e-15")`), allocs(`CONTAINS(?n, "e-15")`)
	t.Logf("allocs over %d rows: REGEX %.0f, CONTAINS %.0f", rows, regex, contains)
	if extra := regex - contains; extra > 2*rows {
		t.Errorf("REGEX allocates %.0f objects more than CONTAINS over %d rows, want at most %d", extra, rows, 2*rows)
	}
}

// TestFilterEnvPerOperator pins one expression env per compiled
// operator: a FILTER over 2,000 rows allocates no object per row for
// the row it evaluates on (it made one for each).
func TestFilterEnvPerOperator(t *testing.T) {
	const rows = 2000
	st := rdf.NewStore()
	for i := 0; i < rows; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:next", fmt.Sprintf("urn:o%d", i))
	}
	sn := st.Freeze()
	q, err := sparql.Parse(`SELECT ?s WHERE { ?s <urn:next> ?o FILTER (?o != <urn:o7>) }`)
	if err != nil {
		t.Fatal(err)
	}
	perRow := testing.AllocsPerRun(5, func() {
		res, err := QueryAnswer(context.Background(), sn, q, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Answer.Len(); got != rows-1 {
			t.Fatalf("%d rows, want %d", got, rows-1)
		}
	}) / rows
	t.Logf("%.3f objects per row over %d rows", perRow, rows)
	if perRow > 0.25 {
		t.Errorf("a FILTER query allocates %.3f objects per row, want at most 0.25", perRow)
	}
}
