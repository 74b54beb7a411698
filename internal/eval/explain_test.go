package eval

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"sparqlog/internal/exec"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// explainStore is a small social graph with a few literals, enough for
// every operator to have rows.
func explainStore() *rdf.Snapshot {
	st := rdf.NewStore()
	for i := 0; i < 12; i++ {
		st.Add(fmt.Sprintf("urn:a%d", i), "urn:knows", fmt.Sprintf("urn:a%d", (i+1)%12))
		if i%2 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:age", strconv.Itoa(20+i))
		}
		if i%3 == 0 {
			st.Add(fmt.Sprintf("urn:a%d", i), "urn:name", fmt.Sprintf("n%d", i))
		}
	}
	st.Add("urn:a0", "urn:special", "urn:a5")
	return st.Freeze()
}

// explainedCounts reads the answer and probe totals off a transcript.
func explainedCounts(t *testing.T, text string) (answer string, probes int64) {
	t.Helper()
	a := regexp.MustCompile(`(?m)^answer: (.*)$`).FindStringSubmatch(text)
	p := regexp.MustCompile(`(?m)^executed once in \S+: (\d+) probes`).FindStringSubmatch(text)
	if a == nil || p == nil {
		t.Fatalf("transcript lacks the answer or the totals line:\n%s", text)
	}
	n, _ := strconv.ParseInt(p[1], 10, 64)
	return a[1], n
}

// TestExplainMatchesExecution: Explain executes the query exactly once,
// through the production compiler, and reports what QueryAnswer
// computes for the same query: the answer's size (or ASK value) and the
// probe count. Every operator the query compiles to has a line, and no
// transcript disclaims its own answer.
func TestExplainMatchesExecution(t *testing.T) {
	sn := explainStore()
	queries := []string{
		`SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:knows> ?z . ?x <urn:special> ?y }`,
		`SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:name> ?n } }`,
		`SELECT * WHERE { { ?x <urn:age> ?v } UNION { ?x <urn:name> ?v } }`,
		`SELECT * WHERE { ?x <urn:knows> ?y FILTER(?x != <urn:a3>) MINUS { ?x <urn:age> "26" } }`,
		`SELECT ?x ?d WHERE { ?x <urn:age> ?a BIND(?a + 1 AS ?d) }`,
		`SELECT * WHERE { VALUES ?x { <urn:a0> <urn:a6> } ?x <urn:knows> ?y }`,
		`SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:age> ?a } } ?x <urn:knows> ?y }`,
		`SELECT * WHERE { GRAPH ?g { ?x <urn:special> ?y } }`,
		`SELECT ?x WHERE { ?x <urn:knows> ?y SERVICE SILENT <http://remote/> { ?y <urn:name> ?n } }`,
		`SELECT ?y WHERE { <urn:a0> <urn:knows>+ ?y }`,
		`SELECT ?x WHERE { ?x <urn:knows>/<urn:knows> <urn:a4> }`,
		`SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <urn:knows> ?y } GROUP BY ?x HAVING (COUNT(?y) > 0) ORDER BY DESC(?n) ?x LIMIT 3`,
		`SELECT DISTINCT ?x WHERE { ?x <urn:knows> ?y } OFFSET 2 LIMIT 4`,
		`SELECT * WHERE { ?x <urn:knows> ?y FILTER EXISTS { ?y <urn:age> ?a } }`,
		`ASK { ?x <urn:special> ?y . ?y <urn:knows> ?z }`,
		`CONSTRUCT { ?y <urn:knownBy> ?x } WHERE { ?x <urn:knows> ?y }`,
		`DESCRIBE ?x WHERE { ?x <urn:special> ?y }`,
	}
	var executions int
	TestHookExecute = func(*sparql.Query) { executions++ }
	defer func() { TestHookExecute = nil }()
	for _, src := range queries {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		executions = 0
		text, err := Explain(context.Background(), sn, q)
		if err != nil {
			t.Fatalf("%s: %v\n%s", src, err, text)
		}
		if executions != 1 {
			t.Fatalf("%s: Explain executed the query %d times, want once", src, executions)
		}
		res, err := QueryAnswer(context.Background(), sn, q, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d rows", res.Answer.Len())
		if q.Type == sparql.AskQuery {
			want = strconv.FormatBool(res.Bool)
		}
		answer, probes := explainedCounts(t, text)
		if answer != want || probes != res.Probes {
			t.Fatalf("%s: transcript says %q with %d probes, execution %q with %d probes:\n%s",
				src, answer, probes, want, res.Probes, text)
		}
		if strings.Contains(text, "may return different results") {
			t.Fatalf("%s: transcript disclaims its answer:\n%s", src, text)
		}
	}
}

// TestExplainShowsEveryOperator pins the tree's lines for one query that
// uses most operators: each is labelled by what it evaluates, in pull
// order, with the side subtrees indented under their operator.
func TestExplainShowsEveryOperator(t *testing.T) {
	sn := explainStore()
	q, err := sparql.Parse(`SELECT ?x ?n WHERE {
		?x <urn:knows> ?y . ?x <urn:special> ?z
		OPTIONAL { ?y <urn:name> ?n }
		FILTER(?x != <urn:a3>)
		MINUS { ?x <urn:age> "30" }
	} ORDER BY ?x LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Explain(context.Background(), sn, q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"unit",
		"join ?x <urn:special> ?z  binds ?x ?z",
		"join ?x <urn:knows> ?y  binds ?y",
		"optional",
		"    seed",
		"    join ?y <urn:name> ?n",
		"minus",
		"    unit",
		`    join ?x <urn:age> "30"`,
		"filter ?x != <urn:a3>",
		"top-k order by: mode=sort, scanned 1 rows, kept 1",
		"offset 0 limit 5",
	}
	at := 0
	for _, w := range want {
		i := strings.Index(text[at:], "  "+w)
		if i < 0 {
			t.Fatalf("transcript lacks %q after offset %d:\n%s", w, at, text)
		}
		at += i + len(w)
	}
	if !strings.Contains(text[at:], "\nanswer: 1 rows\n") {
		t.Fatalf("the answer line does not follow the tree:\n%s", text)
	}
	// The selective atom is planned first and estimated; the unplanned
	// operators show no estimate.
	if !regexp.MustCompile(`(?m)^\s+1\s+1\s+1  join \?x <urn:special>`).MatchString(text) {
		t.Fatalf("the planned join does not carry its estimate and rows:\n%s", text)
	}
}

// TestExplainQueriesWithoutPatterns: a query with no triple or path
// pattern still compiles to a tree, and Explain renders it.
func TestExplainQueriesWithoutPatterns(t *testing.T) {
	sn := explainStore()
	for src, want := range map[string]string{
		`ASK {}`:                                 "answer: true",
		`SELECT (1 AS ?x) {}`:                    "answer: 1 rows",
		`SELECT * WHERE { VALUES ?x { 1 2 3 } }`: "answer: 3 rows",
		`DESCRIBE <urn:a0>`:                      "answer: 5 rows",
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		text, err := Explain(context.Background(), sn, q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !strings.Contains(text, "unit") || !strings.Contains(text, want) {
			t.Errorf("%s: transcript lacks the tree or %q:\n%s", src, want, text)
		}
	}
}

// TestExplainPathReportsTheEvaluationThatRan: with the path's subject
// bound by the join before it, the executor evaluates the path forward
// once per bound subject; the transcript reports that evaluation, not a
// multi-source sweep, and the path operator's own row count.
func TestExplainPathReportsTheEvaluationThatRan(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 6; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", "urn:c")
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:q", fmt.Sprintf("urn:t%d", i))
		st.Add(fmt.Sprintf("urn:t%d", i), "urn:q", "urn:end")
	}
	st.Add("urn:other", "urn:q", "urn:end")
	sn := st.Freeze()
	q, err := sparql.Parse(`SELECT * WHERE { ?x <urn:p> <urn:c> . ?x <urn:q>+ ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Explain(context.Background(), sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "evaluation: forward (subject bound) x6;") || strings.Contains(text, "multi-source") {
		t.Fatalf("transcript does not report the forward evaluations that ran:\n%s", text)
	}
	m := regexp.MustCompile(`(?m)^\s+-\s+(\d+)\s+\d+  path \?x`).FindStringSubmatch(text)
	if m == nil || m[1] != "12" || !strings.Contains(text, "answer: 12 rows") {
		t.Fatalf("path operator rows do not match the answer's 12:\n%s", text)
	}
}

// TestExplainCacheLineCutsOnRuneBoundary: the result-cache line shortens
// a long key without splitting a multi-byte character.
func TestExplainCacheLineCutsOnRuneBoundary(t *testing.T) {
	for pad := 0; pad < 4; pad++ {
		q, err := sparql.Parse(`SELECT * WHERE { ?s <urn:p> "` + strings.Repeat("x", pad) + strings.Repeat("é", 60) + `" }`)
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`canonical key ("(?:[^"\\]|\\.)*")`).FindStringSubmatch(explainCacheLine(q))
		if m == nil {
			t.Fatalf("no key in %q", explainCacheLine(q))
		}
		key, err := strconv.Unquote(m[1])
		if err != nil || !utf8.ValidString(key) || !strings.HasSuffix(key, "...") {
			t.Fatalf("pad %d: key %q cut inside a character", pad, key)
		}
	}
}

// TestExplainRowLimitRendersTree: an execution that overflows the row
// budget returns the error with the tree as far as it ran.
func TestExplainRowLimitRendersTree(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 1100; i++ {
		st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:o%d", i))
	}
	sn := st.Freeze()
	q, err := sparql.Parse(`SELECT * WHERE { ?a <urn:p> ?b . ?c <urn:p> ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Explain(context.Background(), sn, q)
	if !errors.Is(err, exec.ErrRowLimit) {
		t.Fatalf("err = %v, want %v", err, exec.ErrRowLimit)
	}
	for _, want := range []string{"join ?a <urn:p> ?b", "join ?c <urn:p> ?d", "error: " + exec.ErrRowLimit.Error()} {
		if !strings.Contains(text, want) {
			t.Fatalf("overflowed transcript lacks %q:\n%s", want, text)
		}
	}
}
