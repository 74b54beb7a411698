package analysis

import (
	"strings"
	"testing"

	"sparqlog/internal/sparql"
)

func parse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// scan is Scan of the parsed src.
func scan(t *testing.T, src string) Features { return Scan(parse(t, src)) }

// fragments is ClassifyFragments of the parsed src.
func fragments(t *testing.T, src string) Fragments {
	q := parse(t, src)
	f := Scan(q)
	return ClassifyFragments(&f, sparql.ScopeOf(q))
}

func TestKeywordsBasic(t *testing.T) {
	q := parse(t, `SELECT DISTINCT ?s WHERE {
		?s <p> ?o .
		OPTIONAL { ?s <q> ?x }
		FILTER (?o > 1)
		{ ?s <a> ?b } UNION { ?s <c> ?d }
		GRAPH <g> { ?s <e> ?f }
	} ORDER BY ?s LIMIT 10 OFFSET 5`)
	k := Scan(q).Keywords
	if !k.Has(KwSelect) || k.Has(KwAsk) {
		t.Error("query type flags wrong")
	}
	for _, w := range []Keyword{KwDistinct, KwLimit, KwOffset, KwOrderBy, KwFilter, KwAnd, KwUnion, KwOpt, KwGraph} {
		if !k.Has(w) {
			t.Errorf("keyword %s not detected", w)
		}
	}
	if k.Has(KwMinus) || k.Has(KwNotExists) || k.Has(KwGroupBy) {
		t.Error("false positives in keyword scan")
	}
}

func TestKeywordsAndSemantics(t *testing.T) {
	// A single triple has no And.
	if scan(t, "SELECT * WHERE { ?s <p> ?o }").Keywords.Has(KwAnd) {
		t.Error("single triple must not set And")
	}
	// Two triples have And.
	if !scan(t, "SELECT * WHERE { ?s <p> ?o . ?o <q> ?z }").Keywords.Has(KwAnd) {
		t.Error("two triples must set And")
	}
	// Triple + FILTER does not create And.
	if scan(t, "SELECT * WHERE { ?s <p> ?o FILTER(?o > 1) }").Keywords.Has(KwAnd) {
		t.Error("triple+filter must not set And")
	}
	// Triple + OPTIONAL does not create And.
	if scan(t, "SELECT * WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } }").Keywords.Has(KwAnd) {
		t.Error("triple+optional must not set And")
	}
}

func TestKeywordsAggregatesAndNegation(t *testing.T) {
	q := parse(t, `SELECT (COUNT(*) AS ?n) (MAX(?v) AS ?m) WHERE {
		?s <p> ?v FILTER NOT EXISTS { ?s <bad> ?x }
		MINUS { ?s <worse> ?y }
	} GROUP BY ?s HAVING (SUM(?v) > 10)`)
	k := Scan(q).Keywords
	for _, w := range []Keyword{KwCount, KwMax, KwSum, KwGroupBy, KwHaving} {
		if !k.Has(w) {
			t.Errorf("aggregate keyword %s not detected", w)
		}
	}
	if !k.Has(KwNotExists) || !k.Has(KwMinus) {
		t.Error("negation flags missing")
	}
	if k.Has(KwExists) {
		t.Error("plain EXISTS should not be set for NOT EXISTS")
	}
}

func TestKeywordsSubquery(t *testing.T) {
	q := parse(t, `SELECT ?s WHERE { { SELECT DISTINCT ?s WHERE { ?s <p> ?o } LIMIT 3 } }`)
	k := Scan(q).Keywords
	if !k.Has(KwSubQuery) || !k.Has(KwDistinct) || !k.Has(KwLimit) {
		t.Errorf("subquery keyword merge failed: %b", k)
	}
	if k.Has(KwAsk) || !k.Has(KwSelect) {
		t.Error("inner select must not set outer type flags")
	}
}

func TestTripleCount(t *testing.T) {
	tests := []struct {
		src  string
		want int
	}{
		{"SELECT * WHERE { ?s ?p ?o }", 1},
		{"SELECT * WHERE { ?s <p> ?o . ?o <q> ?z . ?z <r> ?w }", 3},
		{"ASK { ?x <a>/<b>* ?y }", 1}, // property path counts as one
		{"DESCRIBE <x>", 0},
		{"SELECT * WHERE { ?s <p> ?o OPTIONAL { ?o <q> ?z . ?z <r> ?w } }", 3},
	}
	for _, tc := range tests {
		f := scan(t, tc.src)
		if got := f.TripleCount(); got != tc.want {
			t.Errorf("TripleCount(%q) = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestOperatorSets(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"SELECT * WHERE { ?s ?p ?o }", "none"},
		{"SELECT * WHERE { ?s ?p ?o . ?o ?q ?z }", "A"},
		{"SELECT * WHERE { ?s ?p ?o FILTER(?o > 1) }", "F"},
		{"SELECT * WHERE { ?s ?p ?o . ?o ?q ?z FILTER(?o > 1) }", "A, F"},
		{"SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <q> ?x } }", "O"},
		{"SELECT * WHERE { { ?s <a> ?o } UNION { ?s <b> ?o } }", "U"},
		{"SELECT * WHERE { GRAPH <g> { ?s ?p ?o } }", "G"},
		{"SELECT * WHERE { ?s <p> ?o . ?o <q> ?z OPTIONAL { ?s <r> ?w } FILTER(?z != 1) }", "A, O, F"},
		{"SELECT * WHERE { ?s <p> ?o BIND(?o AS ?b) }", "other"},
		{"SELECT * WHERE { ?s <p>* ?o }", "other"},
		{"SELECT * WHERE { ?s <p> ?o MINUS { ?s <q> ?o } }", "other"},
		{"SELECT * WHERE { ?s <p> ?o FILTER EXISTS { ?s <q> ?x } }", "other"},
		{"DESCRIBE <x>", "none"},
	}
	for _, tc := range tests {
		if got := scan(t, tc.src).Operators.Key(); got != tc.want {
			t.Errorf("Operators(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
}

// TestOperatorSetKeyTable holds Key's table to the rendering it
// replaced, which joined the set's letters for every query, over all 64
// combinations of the six flags; and a key costs no allocation.
func TestOperatorSetKeyTable(t *testing.T) {
	joined := func(s OperatorSet) string {
		if s.Other {
			return "other"
		}
		var parts []string
		if s.And {
			parts = append(parts, "A")
		}
		if s.Opt {
			parts = append(parts, "O")
		}
		if s.Union {
			parts = append(parts, "U")
		}
		if s.Graph {
			parts = append(parts, "G")
		}
		if s.Filter {
			parts = append(parts, "F")
		}
		if len(parts) == 0 {
			return "none"
		}
		return strings.Join(parts, ", ")
	}
	for i := range 64 {
		s := OperatorSet{And: i&1 != 0, Filter: i&2 != 0, Opt: i&4 != 0, Graph: i&8 != 0, Union: i&16 != 0, Other: i&32 != 0}
		if got, want := s.Key(), joined(s); got != want {
			t.Errorf("%+v: Key() = %q, want %q", s, got, want)
		}
	}
	s := OperatorSet{And: true, Opt: true, Filter: true}
	if n := testing.AllocsPerRun(100, func() { _ = s.Key() }); n != 0 {
		t.Errorf("Key allocates %v times, want 0", n)
	}
}

func TestDistributionSubtotals(t *testing.T) {
	d := NewDistribution()
	for _, src := range []string{
		"SELECT * WHERE { ?s ?p ?o }",                          // none
		"SELECT * WHERE { ?s ?p ?o FILTER(?o>1) }",             // F
		"SELECT * WHERE { ?s ?p ?o . ?o ?q ?z }",               // A
		"SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <q> ?x } }",   // O
		"SELECT * WHERE { { ?s <a> ?o } UNION { ?s <b> ?o } }", // U
		"SELECT * WHERE { GRAPH <g> { ?s ?p ?o } }",            // G
	} {
		d.Add(scan(t, src).Operators)
	}
	if got := d.CPFSubtotal(); got != 3 {
		t.Errorf("CPF subtotal = %d, want 3", got)
	}
	if d.PlusOpt() != 1 || d.PlusUnion() != 1 || d.PlusGraph() != 1 {
		t.Errorf("plus counts = %d/%d/%d", d.PlusOpt(), d.PlusUnion(), d.PlusGraph())
	}
}

func TestProjection(t *testing.T) {
	tests := []struct {
		src  string
		want ProjectionVerdict
	}{
		{"SELECT * WHERE { ?s ?p ?o }", NoProjection},
		{"SELECT ?s ?p ?o WHERE { ?s ?p ?o }", NoProjection},
		{"SELECT ?s WHERE { ?s ?p ?o }", UsesProjection},
		{"ASK { <s> <p> <o> }", NoProjection},
		{"ASK { ?s <p> <o> }", UsesProjection},
		// Variables only inside a FILTER are not in scope.
		{"SELECT ?s WHERE { ?s <p> <o> FILTER(?x > 1) }", NoProjection},
		// MINUS does not bind outer variables.
		{"SELECT ?s WHERE { ?s <p> <o> MINUS { ?s <q> ?hidden } }", NoProjection},
		// BIND-only unprojected variable: indeterminate.
		{"SELECT ?s WHERE { ?s <p> ?o BIND(str(?o) AS ?b) }", UsesProjection},
		{"SELECT ?s ?o WHERE { ?s <p> ?o BIND(str(?o) AS ?b) }", Indeterminate},
		// Subquery exposes only its projection.
		{"SELECT ?s WHERE { { SELECT ?s WHERE { ?s <p> ?inner } } }", NoProjection},
		{"SELECT ?s WHERE { ?s <p> ?o . { SELECT ?o WHERE { ?o <q> ?z } } }", UsesProjection},
		// A SELECT * subquery exposes its in-scope variables, not the
		// ones only its FILTER names.
		{"SELECT ?s WHERE { { SELECT * WHERE { ?s <p> <o> FILTER(?x > 1) } } }", NoProjection},
		// Describe/Construct are not classified.
		{"DESCRIBE ?x WHERE { ?x <p> ?y }", NoProjection},
	}
	for _, tc := range tests {
		if got := Projection(sparql.ScopeOf(parse(t, tc.src))); got != tc.want {
			t.Errorf("Projection(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestUsesSubqueries(t *testing.T) {
	if scan(t, "SELECT * WHERE { ?s ?p ?o }").Subquery {
		t.Error("false positive")
	}
	if !scan(t, "SELECT ?s WHERE { { SELECT ?s WHERE { ?s <p> ?o } } }").Subquery {
		t.Error("subquery not detected")
	}
}

func TestFragmentsCQ(t *testing.T) {
	f := fragments(t, "SELECT * WHERE { ?s <p> ?o . ?o <q> ?z }")
	if !f.AOF || !f.CQ || !f.CPF || !f.CQF || !f.WellDesigned || !f.CQOF {
		t.Errorf("fragments = %+v, want all CQ-like flags", f)
	}
	if f.HasVarPredicate {
		t.Error("no variable predicates here")
	}
}

func TestFragmentsCPFAndCQF(t *testing.T) {
	// Simple filter (one variable): CQF.
	f := fragments(t, "SELECT * WHERE { ?s <p> ?o FILTER(?o > 1) }")
	if !f.CPF || !f.CQF || f.CQ {
		t.Errorf("simple filter: %+v", f)
	}
	// Equality of two variables: still CQF.
	f2 := fragments(t, "SELECT * WHERE { ?s <p> ?o . ?s <q> ?z FILTER(?o = ?z) }")
	if !f2.CQF {
		t.Errorf("?x=?y filter should be simple: %+v", f2)
	}
	// Two-variable non-equality filter: CPF but not CQF.
	f3 := fragments(t, "SELECT * WHERE { ?s <p> ?o . ?s <q> ?z FILTER(?o > ?z) }")
	if !f3.CPF || f3.CQF {
		t.Errorf("complex filter: %+v", f3)
	}
}

func TestFragmentsAOF(t *testing.T) {
	f := fragments(t, "SELECT * WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } }")
	if !f.AOF || f.CQ || f.CPF {
		t.Errorf("AOF with OPT: %+v", f)
	}
	// UNION leaves AOF.
	f2 := fragments(t, "SELECT * WHERE { { ?s <a> ?o } UNION { ?s <b> ?o } }")
	if f2.AOF {
		t.Errorf("union must not be AOF: %+v", f2)
	}
	// Property path leaves AOF.
	f3 := fragments(t, "SELECT * WHERE { ?s <a>* ?o }")
	if f3.AOF {
		t.Errorf("path must not be AOF: %+v", f3)
	}
	// CONSTRUCT is never AOF.
	f4 := fragments(t, "CONSTRUCT { ?s <p> ?o } WHERE { ?s <p> ?o }")
	if f4.AOF {
		t.Error("construct must not be AOF")
	}
}

func TestWellDesignedPaperExamples(t *testing.T) {
	// P1 and P2 from Example 5.4 are well-designed with interface width 1.
	p1 := `SELECT * WHERE { { ?A <name> ?N OPTIONAL { ?A <email> ?E } } OPTIONAL { ?A <webPage> ?W } }`
	f1 := fragments(t, p1)
	if !f1.WellDesigned || f1.InterfaceWidth != 1 || !f1.CQOF {
		t.Errorf("P1: %+v", f1)
	}
	p2 := `SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E OPTIONAL { ?A <webPage> ?W } } }`
	f2 := fragments(t, p2)
	if !f2.WellDesigned || f2.InterfaceWidth != 1 || !f2.CQOF {
		t.Errorf("P2: %+v", f2)
	}
}

func TestNotWellDesigned(t *testing.T) {
	// ?x appears in the OPTIONAL (not in its left side) and outside it.
	src := `SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?x } ?c <r> ?x }`
	f := fragments(t, src)
	if !f.AOF {
		t.Fatal("should be AOF")
	}
	if f.WellDesigned {
		t.Error("pattern must not be well-designed")
	}
	if f.CQOF {
		t.Error("not CQOF when not well-designed")
	}
}

// TestNestedOptionalFoldsInItsGroup: a nested group is one operand of
// its enclosing group's fold, so an OPTIONAL with nothing before it in
// its group has the unit pattern on its left, not the enclosing
// group's elements.
func TestNestedOptionalFoldsInItsGroup(t *testing.T) {
	for _, tc := range []struct {
		src          string
		wellDesigned bool
		width        int
	}{
		// P And (unit Opt Q), ?x in Q and P: not well-designed.
		{`SELECT * WHERE { ?x <p> ?y { OPTIONAL { ?x <q> ?z } } }`, false, 0},
		{`SELECT * WHERE { ?x <p> ?y { { } OPTIONAL { ?x <q> ?z } { } } }`, false, 0},
		{`SELECT * WHERE { { OPTIONAL { ?x <q> ?z } } ?x <p> ?y }`, false, 0},
		// Q shares nothing with P: well-designed, and the nested node
		// shares nothing with its child.
		{`SELECT * WHERE { ?x <p> ?y { OPTIONAL { ?a <q> ?z } } }`, true, 0},
		{`SELECT * WHERE { { OPTIONAL { ?x <q> ?z } } }`, true, 0},
		// Q's left side in its own group binds what it shares.
		{`SELECT * WHERE { ?x <p> ?y { ?x <r> ?w OPTIONAL { ?x <q> ?w } } }`, true, 2},
		{`SELECT * WHERE { ?x <p> ?y { ?y <r> ?w OPTIONAL { ?w <q> ?z } } }`, true, 1},
	} {
		f := fragments(t, tc.src)
		if !f.AOF || f.WellDesigned != tc.wellDesigned || f.WellDesigned && f.InterfaceWidth != tc.width ||
			f.CQOF != (tc.wellDesigned && tc.width <= 1) {
			t.Errorf("%s: %+v, want well-designed %v, width %d", tc.src, f, tc.wellDesigned, tc.width)
		}
	}
}

func TestInterfaceWidthTwo(t *testing.T) {
	// Root shares two variables with the OPTIONAL child.
	src := `SELECT * WHERE { ?A <knows> ?B OPTIONAL { ?A <worksWith> ?B } }`
	f := fragments(t, src)
	if !f.WellDesigned {
		t.Fatal("well-designed expected")
	}
	if f.InterfaceWidth != 2 {
		t.Errorf("interface width = %d, want 2", f.InterfaceWidth)
	}
	if f.CQOF {
		t.Error("interface width 2 is not CQOF")
	}
}

func TestEqualityCollapses(t *testing.T) {
	q := parse(t, "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d FILTER(?b = ?c) FILTER(?a > 1) }")
	pairs := Scan(q).Collapses
	if len(pairs) != 1 || pairs[0] != [2]string{"b", "c"} {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestVarPredicateFlag(t *testing.T) {
	f := fragments(t, "ASK { ?x ?p ?y . ?y ?p ?z }")
	if !f.HasVarPredicate || !f.CQ {
		t.Errorf("var predicate CQ: %+v", f)
	}
}

func TestPatternTreeShape(t *testing.T) {
	// The root {?A name ?N} has two OPTIONAL children, each sharing ?A
	// with it: width 1.
	f := fragments(t, `SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } OPTIONAL { ?A <web> ?W } }`)
	if !f.WellDesigned || f.InterfaceWidth != 1 || !f.CQOF {
		t.Errorf("pattern tree of two children: %+v", f)
	}
	// Nested groups flatten into their node: the child shares ?A and ?N.
	f = fragments(t, `SELECT * WHERE { ?A <name> ?X { ?X <alias> ?N } OPTIONAL { ?A <nick> ?N } }`)
	if !f.WellDesigned || f.InterfaceWidth != 2 || f.CQOF {
		t.Errorf("flattened node: %+v", f)
	}
}

func TestBodylessQueryFragments(t *testing.T) {
	f := fragments(t, "DESCRIBE <x>")
	if f.AOF || f.CQ {
		t.Error("bodyless describe must not be classified")
	}
}

func TestDistributionMerge(t *testing.T) {
	a := NewDistribution()
	b := NewDistribution()
	for _, src := range []string{
		"SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }",
		"SELECT * WHERE { ?x <p> ?y FILTER(?y > 1) }",
	} {
		a.Add(scan(t, src).Operators)
	}
	b.Add(scan(t, "SELECT * WHERE { ?x <p> ?y FILTER(?y > 1) }").Operators)
	a.Merge(b)
	if a.Total != 3 {
		t.Errorf("merged total = %d, want 3", a.Total)
	}
	if a.Counts["F"] != 2 || a.Counts["A"] != 1 {
		t.Errorf("merged counts = %v", a.Counts)
	}
	// Merging an empty distribution is the identity.
	before := a.Total
	a.Merge(NewDistribution())
	if a.Total != before {
		t.Error("empty merge changed total")
	}
}
