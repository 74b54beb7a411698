package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// This file holds the solution modifiers to the SPARQL 1.1
// recommendation rather than to the reference evaluator: each case is
// (data, query, expected answer), the answer worked out by hand from
// §18.2.1 (in-scope variables, which SELECT * projects), §16.2
// (CONSTRUCT) and §16.4 (DESCRIBE).

// specStore is six triples: two resources with an <a> value and a <b>
// link to <z>, which links back to x2 and has a name.
func specStore() *rdf.Snapshot {
	st := rdf.NewStore()
	st.Add("urn:x1", "urn:a", "1")
	st.Add("urn:x2", "urn:a", "2")
	st.Add("urn:x1", "urn:b", "urn:z")
	st.Add("urn:x2", "urn:b", "urn:z")
	st.Add("urn:z", "urn:d", "urn:x2")
	st.Add("urn:z", "urn:name", "zed")
	return st.Freeze()
}

// specCase is one hand-checked answer: the header and the multiset of
// rows.
type specCase struct {
	name, src string
	vars      []string
	rows      [][]string
}

func checkSpec(t *testing.T, sn *rdf.Snapshot, c specCase) {
	t.Helper()
	q, err := sparql.Parse(c.src)
	if err != nil {
		t.Fatalf("parse %q: %v", c.src, err)
	}
	res, err := Query(sn, q)
	if err != nil {
		t.Fatalf("%q: %v", c.src, err)
	}
	if !slices.Equal(res.Vars, c.vars) {
		t.Fatalf("%q: header %q, want %q", c.src, res.Vars, c.vars)
	}
	got, want := rowStrings(res.Rows), rowStrings(c.rows)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%q:\n got %q\nwant %q", c.src, got, want)
	}
}

func rowStrings(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	return out
}

// TestSelectStarProjectsInScopeVariables: SELECT * projects the
// variables in scope in the WHERE clause (§18.2.1), bound or not — an
// OPTIONAL variable that no row binds is a column of unbound cells —
// and never a variable that occurs only in a FILTER, a MINUS or an
// EXISTS. A subquery's SELECT * exposes the same set to its enclosing
// query.
func TestSelectStarProjectsInScopeVariables(t *testing.T) {
	sn := specStore()
	for _, c := range []specCase{
		{
			name: "unbound OPTIONAL variable",
			src:  `SELECT * { ?x <urn:a> ?t OPTIONAL { ?x <urn:c> ?w } }`,
			vars: []string{"t", "w", "x"},
			rows: [][]string{{"1", "", "urn:x1"}, {"2", "", "urn:x2"}},
		},
		{
			name: "FILTER, MINUS and EXISTS variables are not in scope",
			src: `SELECT * { ?x <urn:a> ?t OPTIONAL { ?x <urn:c> ?w }
				FILTER(!BOUND(?f)) MINUS { ?x <urn:c> ?m } FILTER NOT EXISTS { ?x <urn:c> ?e } }`,
			vars: []string{"t", "w", "x"},
			rows: [][]string{{"1", "", "urn:x1"}, {"2", "", "urn:x2"}},
		},
		{
			name: "subquery",
			src:  `SELECT * { { SELECT * { ?x <urn:a> ?t OPTIONAL { ?x <urn:c> ?w } FILTER(!BOUND(?z)) } } }`,
			vars: []string{"t", "w", "x"},
			rows: [][]string{{"1", "", "urn:x1"}, {"2", "", "urn:x2"}},
		},
		{
			name: "DISTINCT with LIMIT",
			src:  `SELECT DISTINCT * { ?x <urn:b> ?y OPTIONAL { ?y <urn:c> ?w } } ORDER BY DESC(?x) LIMIT 1`,
			vars: []string{"w", "x", "y"},
			rows: [][]string{{"", "urn:x2", "urn:z"}},
		},
	} {
		t.Run(c.name, func(t *testing.T) { checkSpec(t, sn, c) })
	}
}

// TestImplicitGrouping: an aggregate in HAVING or ORDER BY groups all
// solutions into one group (§18.2.4.1), as one in SELECT does, and an
// ASK, grouped implicitly or by GROUP BY, answers whether a group
// survives its HAVING.
func TestImplicitGrouping(t *testing.T) {
	st := rdf.NewStore()
	st.Add("urn:s1", "urn:p", "urn:o1")
	st.Add("urn:s2", "urn:p", "urn:o2")
	sn := st.Freeze()
	for _, c := range []specCase{
		{
			name: "HAVING",
			src:  `SELECT (1 AS ?one) { ?s ?p ?o } HAVING (COUNT(?s) > 100)`,
			vars: []string{"one"},
		},
		{
			name: "ORDER BY",
			src:  `SELECT (1 AS ?one) { ?s ?p ?o } ORDER BY COUNT(?s)`,
			vars: []string{"one"},
			rows: [][]string{{"1"}},
		},
	} {
		t.Run(c.name, func(t *testing.T) { checkSpec(t, sn, c) })
	}
	for src, want := range map[string]bool{
		`ASK { ?s ?p ?o } HAVING (COUNT(?s) > 100)`: false,
		`ASK { ?s ?p ?o } HAVING (COUNT(?s) = 2)`:   true,
		// An explicit GROUP BY's HAVING counts for ASK too.
		`ASK { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(*) > 100)`: false,
		`ASK { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(*) = 1)`:   true,
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := Query(sn, q); err != nil || res.Bool != want {
			t.Errorf("%s: %v, %v; want %v", src, res, err, want)
		}
	}
}

// TestConstructModifiersApplyToSolutions: ORDER BY, OFFSET and LIMIT
// pick the solutions the template is instantiated with (§16.2), so one
// kept solution yields every triple of its template.
func TestConstructModifiersApplyToSolutions(t *testing.T) {
	sn := specStore()
	spo := []string{"s", "p", "o"}
	for _, c := range []specCase{
		{
			name: "ORDER BY DESC LIMIT 1",
			src:  `CONSTRUCT { ?x <urn:e> ?t } WHERE { ?x <urn:a> ?t } ORDER BY DESC(?x) LIMIT 1`,
			vars: spo,
			rows: [][]string{{"urn:x2", "urn:e", "2"}},
		},
		{
			name: "ORDER BY DESC OFFSET 1",
			src:  `CONSTRUCT { ?x <urn:e> ?t } WHERE { ?x <urn:a> ?t } ORDER BY DESC(?x) OFFSET 1`,
			vars: spo,
			rows: [][]string{{"urn:x1", "urn:e", "1"}},
		},
		{
			name: "one solution, two template triples",
			src:  `CONSTRUCT { ?x <urn:e> ?t . ?t <urn:f> ?x } WHERE { ?x <urn:a> ?t } ORDER BY ?t LIMIT 1`,
			vars: spo,
			rows: [][]string{{"urn:x1", "urn:e", "1"}, {"1", "urn:f", "urn:x1"}},
		},
	} {
		t.Run(c.name, func(t *testing.T) { checkSpec(t, sn, c) })
	}
}

// TestDescribeModifiersApplyToSolutions: ORDER BY, OFFSET and LIMIT
// pick the solutions whose resources are described (§16.4), and each
// kept resource is described whole. DESCRIBE * describes the in-scope
// variables' values; a blank node in the pattern is not a variable.
func TestDescribeModifiersApplyToSolutions(t *testing.T) {
	sn := specStore()
	spo := []string{"s", "p", "o"}
	x1 := [][]string{{"urn:x1", "urn:a", "1"}, {"urn:x1", "urn:b", "urn:z"}}
	x2 := [][]string{{"urn:x2", "urn:a", "2"}, {"urn:x2", "urn:b", "urn:z"}, {"urn:z", "urn:d", "urn:x2"}}
	for _, c := range []specCase{
		{
			name: "ORDER BY LIMIT 1",
			src:  `DESCRIBE ?x WHERE { ?x <urn:b> ?z } ORDER BY ?x LIMIT 1`,
			vars: spo,
			rows: x1,
		},
		{
			name: "ORDER BY DESC LIMIT 1",
			src:  `DESCRIBE ?x WHERE { ?x <urn:b> ?z } ORDER BY DESC(?x) LIMIT 1`,
			vars: spo,
			rows: x2,
		},
		{
			name: "blank node is not described",
			src:  `DESCRIBE * WHERE { ?x <urn:b> [] }`,
			vars: spo,
			rows: append(slices.Clone(x1), x2...),
		},
	} {
		t.Run(c.name, func(t *testing.T) { checkSpec(t, sn, c) })
	}
}

// TestModifiersStreamForEveryForm: on a fixed Bib graph, every query
// form over a two-hop chain with LIMIT stops pulling once the limit is
// met, as the explicit-projection query does: SELECT *, SELECT
// DISTINCT *, a DISTINCT expression item, CONSTRUCT and DESCRIBE each
// make at most twice its probes.
func TestModifiersStreamForEveryForm(t *testing.T) {
	sn := gmark.Generate(gmark.Config{Nodes: 20000, Seed: 1}).Snapshot
	const where = `WHERE { ?a bib:cites ?b . ?b bib:cites ?c }`
	probes := func(src string) int64 {
		q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/> ` + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := Query(sn, q)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if res.Answer.Len() == 0 {
			t.Fatalf("%q: empty answer; the graph does not exercise the limit", src)
		}
		return res.Probes
	}
	base := probes(`SELECT ?a ?b ?c ` + where + ` LIMIT 10`)
	for _, src := range []string{
		`SELECT * ` + where + ` LIMIT 10`,
		`SELECT DISTINCT * ` + where + ` LIMIT 10`,
		`SELECT DISTINCT (STR(?a) AS ?x) ?b ` + where + ` LIMIT 10`,
		`CONSTRUCT { ?a bib:cites ?c } ` + where + ` LIMIT 10`,
		`DESCRIBE ?a ` + where + ` LIMIT 1`,
	} {
		if got := probes(src); got > 2*base {
			t.Errorf("%s: %d probes, more than twice the explicit projection's %d", src, got, base)
		}
	}
}

// randomModifierQuery builds one query of the modifier family over a
// random body: SELECT *, SELECT DISTINCT *, a (DISTINCT) expression
// item, CONSTRUCT or DESCRIBE, with random ORDER BY keys, OFFSET and
// LIMIT.
func randomModifierQuery(rng *rand.Rand, nNodes, nPreds int) string {
	body, nVars := randomBody(rng, nNodes, nPreds)
	v := func() string { return fmt.Sprintf("?v%d", rng.Intn(nVars)) }
	var q string
	switch rng.Intn(6) {
	case 0:
		q = "SELECT * WHERE { " + body + " }"
	case 1:
		q = "SELECT DISTINCT * WHERE { " + body + " }"
	case 2:
		q = fmt.Sprintf("SELECT DISTINCT (STR(%s) AS ?x) %s WHERE { %s }", v(), v(), body)
	case 3:
		q = fmt.Sprintf("SELECT (CONCAT(STR(%s), \"-\") AS ?x) %s WHERE { %s }", v(), v(), body)
	case 4:
		q = fmt.Sprintf("CONSTRUCT { %s <urn:q> %s . %s <urn:r> <urn:n0> } WHERE { %s }", v(), v(), v(), body)
	default:
		if rng.Intn(2) == 0 {
			q = "DESCRIBE * WHERE { " + body + " }"
		} else {
			q = fmt.Sprintf("DESCRIBE %s <urn:n1> WHERE { %s }", v(), body)
		}
	}
	if n := rng.Intn(3); n > 0 {
		var keys []string
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				keys = append(keys, "DESC("+v()+")")
			} else {
				keys = append(keys, v())
			}
		}
		q += " ORDER BY " + strings.Join(keys, " ")
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf(" OFFSET %d", rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		q += fmt.Sprintf(" LIMIT %d", rng.Intn(6))
	}
	return q
}

// TestModifierDifferentialRandom runs the modifier family through the
// executor and the reference evaluator, row sequence for row sequence.
func TestModifierDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 300; trial++ {
		st := rdf.NewStore()
		nNodes := 3 + rng.Intn(10)
		nPreds := 1 + rng.Intn(3)
		for i := 0; i < 4+rng.Intn(40); i++ {
			st.Add(
				fmt.Sprintf("urn:n%d", rng.Intn(nNodes)),
				fmt.Sprintf("urn:p%d", rng.Intn(nPreds)),
				fmt.Sprintf("urn:n%d", rng.Intn(nNodes)),
			)
		}
		diffOrdered(t, st.Freeze(), randomModifierQuery(rng, nNodes, nPreds))
	}
}
