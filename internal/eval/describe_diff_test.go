package eval

import (
	"fmt"
	"testing"

	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// describeByScan is the DESCRIBE oracle: the full-store scan
// finishDescribe used before it read the indexes — every triple, three
// TermOf calls each, kept when its subject or object text is a target.
// The targets come from outside the finisher under test: constant
// describe terms are expanded here, variable ones are read off the
// WHERE clause evaluated as SELECT * under the query's ORDER BY, OFFSET
// and LIMIT, which apply to solutions (SPARQL 1.1 §16.4).
func describeByScan(t *testing.T, sn *rdf.Snapshot, src string) [][]string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ev := &evaluator{prefixes: q.Prologue.PrefixMap()}
	targets := map[string]bool{}
	describeVars := map[string]bool{}
	for _, dt := range q.DescribeTerms {
		if txt, ok := ev.termText(dt); ok {
			targets[txt] = true
		} else {
			describeVars[dt.Value] = true
		}
	}
	if q.Where != nil {
		q.Type, q.SelectStar = sparql.SelectQuery, true
		sel, err := queryReference(sn, q, Limits{})
		if err != nil {
			t.Fatalf("oracle SELECT for %q: %v", src, err)
		}
		for _, row := range sel.Rows {
			for i, name := range sel.Vars {
				if row[i] != Unbound && (q.DescribeStar || describeVars[name]) {
					targets[row[i]] = true
				}
			}
		}
	}
	var rows [][]string
	for _, tr := range sn.Triples() {
		s, p, o := sn.TermOf(tr.S), sn.TermOf(tr.P), sn.TermOf(tr.O)
		if targets[s] || targets[o] {
			rows = append(rows, []string{s, p, o})
		}
	}
	return rows
}

// describeStore is a gmark Bib graph plus hand-made triples for the
// cases the generator never produces: a hub with thousands of incoming
// edges, three resources that are each other's neighbours, a self-loop,
// and a literal shared by two subjects.
func describeStore() *rdf.Snapshot {
	bib := gmark.Generate(gmark.Config{Nodes: 3000, Seed: 11}).Snapshot
	st := rdf.NewStore()
	for _, tr := range bib.Triples() {
		st.Add(bib.TermOf(tr.S), bib.TermOf(tr.P), bib.TermOf(tr.O))
	}
	for i := 0; i < 4000; i++ {
		st.Add(fmt.Sprintf("urn:n%d", i), "urn:to", "urn:hub")
	}
	st.Add("urn:hub", "urn:to", "urn:n7")
	st.Add("urn:m1", "urn:knows", "urn:m2")
	st.Add("urn:m2", "urn:knows", "urn:m3")
	st.Add("urn:m3", "urn:knows", "urn:m1")
	st.Add("urn:m1", "urn:likes", "urn:m3")
	st.Add("urn:m1", "urn:name", "Alice")
	st.Add("urn:m2", "urn:name", "Alice")
	st.Add("urn:m3", "urn:to", "urn:hub")
	st.Add("urn:loop", "urn:knows", "urn:loop")
	st.Add("urn:loop", "urn:knows", "urn:m1")
	return st.Freeze()
}

// TestDescribeDifferential holds the index-backed DESCRIBE to the scan
// it replaced, on the executor and (the "/legacy" subtests) on the
// reference: the same set of triples, none twice, and the same rows in
// the same order on a second run.
func TestDescribeDifferential(t *testing.T) {
	sn := describeStore()
	cases := []struct {
		name, src string
		wantRows  bool
	}{
		{"single IRI", `DESCRIBE <http://gmark.bib/paper/5>`, true},
		{"prefixed IRI", `PREFIX r: <http://gmark.bib/researcher/> DESCRIBE r:3`, true},
		{"hub", `DESCRIBE <urn:hub>`, true},
		{"mutual neighbours", `DESCRIBE <urn:m1> <urn:m2> <urn:m3>`, true},
		{"hub and its neighbours", `DESCRIBE <urn:hub> <urn:n7> <urn:m3>`, true},
		{"self-loop", `DESCRIBE <urn:loop>`, true},
		{"self-loop by variable", `DESCRIBE ?x WHERE { ?x <urn:knows> ?x }`, true},
		{"literal target", `DESCRIBE ?n WHERE { <urn:m1> <urn:name> ?n }`, true},
		{"absent IRI", `DESCRIBE <urn:absent>`, false},
		{"absent among present", `DESCRIBE <urn:absent> <urn:m2>`, true},
		{"variable", `DESCRIBE ?x WHERE { ?x <urn:knows> <urn:m1> }`, true},
		{"variable over Bib", `PREFIX bib: <http://gmark.bib/p/> DESCRIBE ?a WHERE { <http://gmark.bib/paper/40> bib:authoredBy ?a }`, true},
		{"star", `DESCRIBE * WHERE { ?x <urn:likes> ?y }`, true},
		{"computed target", `DESCRIBE ?c WHERE { <urn:m1> <urn:likes> ?y BIND(CONCAT("Ali", "ce") AS ?c) }`, true},
		{"statically empty WHERE", `DESCRIBE ?x WHERE { ?x <urn:knows> ?y FILTER(false) }`, false},
		{"unbound describe variable", `DESCRIBE ?z WHERE { ?x <urn:likes> ?y }`, false},
	}
	for _, ev := range evaluators {
		for _, c := range cases {
			name := c.name
			if ev.name == "reference" {
				name += "/legacy"
			}
			t.Run(name, func(t *testing.T) {
				want := describeByScan(t, sn, c.src)
				if (len(want) > 0) != c.wantRows {
					t.Fatalf("scan returned %d rows, case expects rows=%v: the case does not test what it says", len(want), c.wantRows)
				}
				got := runDescribe(t, sn, c.src, ev.run)
				sameDescription(t, got, want)
				again := runDescribe(t, sn, c.src, ev.run)
				if fmt.Sprint(again) != fmt.Sprint(got) {
					t.Fatal("second run returned different rows or a different order")
				}
				// OFFSET and LIMIT slice the solutions, not the triples:
				// a sliced query describes what its sliced WHERE binds,
				// and the constant terms whatever the slice.
				for _, sl := range []struct{ off, lim int }{{0, 1}, {1, 3}, {len(got), 2}, {len(got) / 2, len(got)}} {
					src := fmt.Sprintf("%s OFFSET %d LIMIT %d", c.src, sl.off, sl.lim)
					sameDescription(t, runDescribe(t, sn, src, ev.run), describeByScan(t, sn, src))
				}
			})
		}
	}
}

// sameDescription requires got to hold each triple of want once and
// nothing else.
func sameDescription(t *testing.T, got, want [][]string) {
	t.Helper()
	seen := map[[3]string]bool{}
	for _, r := range got {
		k := [3]string{r[0], r[1], r[2]}
		if seen[k] {
			t.Fatalf("triple %q emitted twice", k)
		}
		seen[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("index path returned %d rows, scan %d", len(got), len(want))
	}
	for _, r := range want {
		if !seen[[3]string{r[0], r[1], r[2]}] {
			t.Fatalf("scan row %q missing from the index path", r)
		}
	}
}

func runDescribe(t *testing.T, sn *rdf.Snapshot, src string, run func(*rdf.Snapshot, *sparql.Query, Limits) (*Result, error)) [][]string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := run(sn, q, Limits{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return res.Rows
}
