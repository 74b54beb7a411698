package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// This file is the aggregation/ORDER BY differential: the columnar
// GroupBy/TopK operators promise byte-identical output to the
// reference's finishAggregate/applyOrder finishers — not just the same
// multiset but the same row sequence, because GROUP BY emission order
// (first-encounter) and ORDER BY are part of the observable contract.
// Every query here runs once on the executor and once on the reference
// evaluator, and rows are compared position by position.

// diffOrdered requires identical outcomes — error class, projection,
// and the exact row sequence — between the executor and the reference.
func diffOrdered(t *testing.T, sn *rdf.Snapshot, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	col, cerr := QueryWithLimits(sn, q, Limits{})
	leg, lerr := queryReference(sn, q, Limits{})
	if (cerr == nil) != (lerr == nil) {
		t.Fatalf("error divergence on %q: columnar=%v reference=%v", src, cerr, lerr)
	}
	if cerr != nil {
		return
	}
	if strings.Join(col.Vars, ",") != strings.Join(leg.Vars, ",") {
		t.Fatalf("vars diverge on %q: %v vs %v", src, col.Vars, leg.Vars)
	}
	if len(col.Rows) != len(leg.Rows) {
		t.Fatalf("row counts diverge on %q: columnar=%d reference=%d", src, len(col.Rows), len(leg.Rows))
	}
	for i := range col.Rows {
		a := strings.Join(col.Rows[i], "\x1f")
		b := strings.Join(leg.Rows[i], "\x1f")
		if a != b {
			t.Fatalf("rows diverge on %q at %d:\ncolumnar:  %q\nreference: %q", src, i, a, b)
		}
	}
}

// aggStore builds a graph rich in literal pathologies: numeric ages
// (including negatives and decimals), values that are numeric,
// non-numeric, empty, "NaN" (which strconv parses!), and "0" (numeric
// but falsy), plus a knows-graph for multi-hop grouping.
func aggStore() *rdf.Snapshot {
	st := rdf.NewStore()
	vals := []string{"10", "abc", "", "0", "NaN", "2.5", "-3", "xyz", "10"}
	for i := 0; i < 12; i++ {
		n := fmt.Sprintf("urn:n%d", i)
		st.Add(n, "urn:knows", fmt.Sprintf("urn:n%d", (i+1)%12))
		if i%2 == 0 {
			st.Add(n, "urn:knows", fmt.Sprintf("urn:n%d", (i+5)%12))
		}
		st.Add(n, "urn:age", fmt.Sprintf("%d", 18+7*(i%4)))
		st.Add(n, "urn:val", vals[i%len(vals)])
		if i%3 != 0 {
			st.Add(n, "urn:name", fmt.Sprintf("p%d", i%3))
		}
		st.Add(n, "urn:group", fmt.Sprintf("urn:g%d", i%3))
	}
	// One subject whose values are exclusively unparseable, so AVG/SUM
	// over its group behave differently from mixed groups.
	st.Add("urn:odd", "urn:val", "nope")
	st.Add("urn:odd", "urn:val", "also-nope")
	st.Add("urn:odd", "urn:group", "urn:g9")
	return st.Freeze()
}

// TestAggregateDifferentialOperators is the fixed corpus from the
// issue: GROUP BY arity 0-3, HAVING, AVG over mixed/unparseable
// literals, GROUP_CONCAT separators, multi-key ORDER BY in both
// directions, and OFFSET interaction.
func TestAggregateDifferentialOperators(t *testing.T) {
	sn := aggStore()
	for _, src := range []string{
		// Arity 0: whole-input group, including the synthetic group on
		// empty input.
		`SELECT (COUNT(*) AS ?c) WHERE { ?x <urn:knows> ?y }`,
		`SELECT (COUNT(?y) AS ?c) (SUM(?a) AS ?s) WHERE { ?x <urn:knows> ?y . ?x <urn:age> ?a }`,
		`SELECT (COUNT(*) AS ?c) (SUM(?a) AS ?s) (AVG(?a) AS ?m) WHERE { ?x <urn:nothere> ?a }`,
		`SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?x <urn:age> ?a }`,
		// Arity 1-3, keys projected and not.
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g`,
		`SELECT (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g`,
		`SELECT ?g ?a (COUNT(?x) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY ?g ?a`,
		`SELECT ?g ?a ?v (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a . ?x <urn:val> ?v } GROUP BY ?g ?a ?v`,
		// Empty input with GROUP BY emits no groups at all.
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:nothere> ?g } GROUP BY ?g`,
		// AVG/SUM/MIN/MAX over mixed and fully unparseable literal sets.
		`SELECT ?g (AVG(?v) AS ?m) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g`,
		`SELECT ?g (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g`,
		`SELECT (AVG(?v) AS ?m) WHERE { <urn:odd> <urn:val> ?v }`,
		// Unbound aggregate args via OPTIONAL.
		`SELECT ?x (COUNT(?n) AS ?c) (SAMPLE(?n) AS ?one) WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } } GROUP BY ?x`,
		`SELECT ?x (GROUP_CONCAT(?n) AS ?all) WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } } GROUP BY ?x`,
		// DISTINCT aggregates and GROUP_CONCAT separators.
		`SELECT ?g (COUNT(DISTINCT ?v) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g`,
		`SELECT ?g (GROUP_CONCAT(?v) AS ?all) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g`,
		`SELECT ?g (GROUP_CONCAT(?v; SEPARATOR="|") AS ?all) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g`,
		`SELECT ?g (GROUP_CONCAT(DISTINCT ?v; SEPARATOR=", ") AS ?all) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g`,
		`SELECT (GROUP_CONCAT(?v; SEPARATOR="") AS ?all) WHERE { ?x <urn:val> ?v }`,
		// SAMPLE and plain SAMPLE of the key itself.
		`SELECT ?g (SAMPLE(?x) AS ?who) WHERE { ?x <urn:group> ?g } GROUP BY ?g`,
		// HAVING over aggregate expressions, group keys, and a select
		// alias (unbound inside HAVING on both paths).
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g HAVING (COUNT(*) > 3)`,
		`SELECT ?g (SUM(?a) AS ?s) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY ?g HAVING (SUM(?a) >= 80 && COUNT(*) > 1)`,
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g HAVING (?g != <urn:g1>)`,
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g HAVING (?c > 3)`,
		`SELECT ?g (AVG(?v) AS ?m) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g HAVING (AVG(?v) > 1)`,
		`SELECT ?g (GROUP_CONCAT(?v) AS ?all) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g HAVING (GROUP_CONCAT(?v) != "0")`,
		// ORDER BY over aggregate aliases and group keys, both
		// directions, multi-key, and LIMIT/OFFSET interaction.
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g ORDER BY ?c`,
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g ORDER BY DESC(?c) ?g`,
		`SELECT ?g ?a (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY ?g ?a ORDER BY DESC(?a) ?g`,
		`SELECT ?g (SUM(?a) AS ?s) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY ?g ORDER BY DESC(SUM(?a))`,
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g ORDER BY DESC(?c) LIMIT 2`,
		`SELECT ?g ?a (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY ?g ?a ORDER BY ?a ?g OFFSET 3 LIMIT 4`,
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g ORDER BY ?g OFFSET 1`,
		// ORDER BY a key mixing numeric and non-numeric lexical forms
		// (forces the comparator's pairwise mode switching).
		`SELECT ?v (COUNT(*) AS ?c) WHERE { ?x <urn:val> ?v } GROUP BY ?v ORDER BY ?v`,
		`SELECT ?v (COUNT(*) AS ?c) WHERE { ?x <urn:val> ?v } GROUP BY ?v ORDER BY DESC(?v) LIMIT 3`,
		// Aggregates inside projection expressions.
		`SELECT ?g (COUNT(*) * 2 AS ?cc) WHERE { ?x <urn:group> ?g } GROUP BY ?g`,
		`SELECT ?g (SUM(?a) / COUNT(?a) AS ?m) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY ?g ORDER BY ?m`,
		// Expression group keys, without and with AS.
		`SELECT (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a } GROUP BY (STR(?g)) (?a * 0)`,
		`SELECT ?k ?g (COUNT(*) AS ?n) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY (CONCAT(STR(?g), ?v) AS ?k) ORDER BY ?k`,
		// Computed aggregate arguments, including string builtins whose
		// results spell numbers.
		`SELECT ?g (COUNT(?a + 1) AS ?c) (SUM(?a * 2) AS ?s) (MAX(STR(?a)) AS ?m) (AVG(STR(?v)) AS ?av) WHERE { ?x <urn:group> ?g . ?x <urn:age> ?a . ?x <urn:val> ?v } GROUP BY ?g`,
		// Star forms beyond COUNT(*).
		`SELECT ?g (SUM(*) AS ?s) (GROUP_CONCAT(*) AS ?c) (MIN(*) AS ?m) (AVG(*) AS ?av) WHERE { ?x <urn:group> ?g } GROUP BY ?g`,
		// EXISTS in HAVING, seeded with the group's first member.
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g } GROUP BY ?g HAVING (EXISTS { ?x <urn:name> "p1" })`,
		// A non-key WHERE variable in HAVING and in ORDER BY.
		`SELECT ?g (COUNT(*) AS ?c) WHERE { ?x <urn:group> ?g . ?x <urn:val> ?v } GROUP BY ?g HAVING (?v != "abc") ORDER BY DESC(?v) ?g`,
		// An alias shadowing a WHERE variable.
		`SELECT ?g (COUNT(?x) AS ?x) WHERE { ?x <urn:group> ?g } GROUP BY ?g HAVING (?x != <urn:n1>) ORDER BY ?x ?g`,
	} {
		diffOrdered(t, sn, src)
	}
}

// TestGroupByAliasBindsKey: GROUP BY (expr AS ?k) binds ?k in every
// group to the group's key, for the projection, HAVING and ORDER BY.
func TestGroupByAliasBindsKey(t *testing.T) {
	sn := aggStore()
	for _, tc := range []struct {
		src  string
		want [][]string
	}{
		{`SELECT ?k (COUNT(*) AS ?n) WHERE { ?x <urn:group> ?g } GROUP BY (STR(?g) AS ?k) ORDER BY ?k`,
			[][]string{{"urn:g0", "4"}, {"urn:g1", "4"}, {"urn:g2", "4"}, {"urn:g9", "1"}}},
		{`SELECT ?k (COUNT(*) AS ?n) WHERE { ?x <urn:group> ?g } GROUP BY (STRLEN(STR(?g)) AS ?k) HAVING (?k > 0)`,
			[][]string{{"6", "13"}}},
	} {
		q, err := sparql.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evaluators {
			res, err := ev.run(sn, q, Limits{})
			if err != nil {
				t.Fatalf("%s %q: %v", ev.name, tc.src, err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(tc.want) {
				t.Errorf("%s %q:\ngot  %q\nwant %q", ev.name, tc.src, res.Rows, tc.want)
			}
		}
	}
}

// TestOrderByDifferentialOperators pins the TopK operator on
// non-aggregate queries: heap-eligible homogeneous keys, the
// stable-sort fallback on mixed/error keys, NaN, DISTINCT and
// SELECT * interaction, and slice arithmetic.
func TestOrderByDifferentialOperators(t *testing.T) {
	sn := aggStore()
	for _, src := range []string{
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY ?a`,
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY DESC(?a) ?x`,
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY ?a LIMIT 5`,
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY DESC(?a) OFFSET 2 LIMIT 5`,
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY ?a LIMIT 0`,
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY ?a OFFSET 50 LIMIT 5`,
		// Mixed numeric/string sort keys: stable-sort fallback, with and
		// without LIMIT.
		`SELECT ?x ?v WHERE { ?x <urn:val> ?v } ORDER BY ?v`,
		`SELECT ?x ?v WHERE { ?x <urn:val> ?v } ORDER BY DESC(?v) LIMIT 4`,
		// "NaN" parses as a float; the heap must refuse it.
		`SELECT ?x ?v WHERE { ?x <urn:val> ?v FILTER (?v = "NaN" || ?v = "10" || ?v = "2.5") } ORDER BY ?v LIMIT 2`,
		// Error keys from OPTIONAL unbounds (pairwise skip semantics).
		`SELECT ?x ?n WHERE { ?x <urn:age> ?a OPTIONAL { ?x <urn:name> ?n } } ORDER BY ?n ?x`,
		`SELECT ?x WHERE { ?x <urn:age> ?a } ORDER BY ?missing ?x LIMIT 3`,
		// Expression keys.
		`SELECT ?x ?a WHERE { ?x <urn:age> ?a } ORDER BY (0 - ?a) STR(?x)`,
		// DISTINCT and SELECT * around the sort.
		`SELECT DISTINCT ?a WHERE { ?x <urn:age> ?a } ORDER BY DESC(?a) LIMIT 3`,
		`SELECT * WHERE { ?x <urn:knows> ?y } ORDER BY ?y ?x LIMIT 6`,
		// ORDER BY over a projection-expression alias.
		`SELECT ?x (?a * 2 AS ?b) WHERE { ?x <urn:age> ?a } ORDER BY ?b LIMIT 4`,
		`SELECT ?x (STR(?a) AS ?b) WHERE { ?x <urn:age> ?a } ORDER BY DESC(?b)`,
	} {
		diffOrdered(t, sn, src)
	}
}

// randomAggQuery generates a GROUP BY / aggregate / HAVING / ORDER BY
// query over the aggStore vocabulary. Arity, key forms (plain
// variables, expressions with and without AS), the aggregate mix
// (computed arguments, star forms, an alias shadowing a WHERE
// variable), HAVING (EXISTS, a non-key WHERE variable), ordering keys
// and slicing are all randomized.
func randomAggQuery(rng *rand.Rand) string {
	patterns := []string{
		`?x <urn:group> ?g`,
		`?x <urn:age> ?a`,
		`?x <urn:val> ?v`,
		`?x <urn:knows> ?y`,
	}
	where := []string{patterns[0], patterns[1]}
	hasVal := rng.Intn(2) == 0
	if hasVal {
		where = append(where, patterns[2])
	}
	if rng.Intn(3) == 0 {
		where = append(where, patterns[3])
	}
	if rng.Intn(3) == 0 {
		where = append(where, `OPTIONAL { ?x <urn:name> ?n }`)
	}

	// Each key is its GROUP BY form and the variable it binds, if any.
	keys := [][2]string{
		{"?g", "?g"}, {"?a", "?a"}, {"?v", "?v"},
		{"(STR(?g))", ""}, {"(STR(?g) AS ?k)", "?k"}, {"(?a * 2 AS ?k2)", "?k2"}, {"(CONCAT(?v, \"-\"))", ""},
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:rng.Intn(4)] // arity 0-3
	// Drop keys whose pattern wasn't generated.
	var gb, sel, cands []string
	for _, k := range keys {
		if hasVal || !strings.Contains(k[0], "?v") {
			gb = append(gb, k[0])
			if k[1] != "" {
				cands = append(cands, k[1])
				if rng.Intn(3) > 0 {
					sel = append(sel, k[1])
				}
			}
		}
	}

	aggs := []string{
		`(COUNT(*) AS ?c)`,
		`(COUNT(?a) AS ?c)`,
		`(COUNT(DISTINCT ?v) AS ?c)`,
		`(SUM(?a) AS ?s)`,
		`(AVG(?v) AS ?m)`,
		`(MIN(?v) AS ?lo)`,
		`(MAX(?a) AS ?hi)`,
		`(SAMPLE(?x) AS ?one)`,
		`(GROUP_CONCAT(?v) AS ?cat)`,
		`(GROUP_CONCAT(DISTINCT ?v; SEPARATOR="|") AS ?cat)`,
		`(COUNT(?a + 1) AS ?c1)`,
		`(SUM(STRLEN(?v)) AS ?s1)`,
		`(SUM(*) AS ?ss)`,
		`(GROUP_CONCAT(*) AS ?gc)`,
		`(COUNT(?x) AS ?x)`,
	}
	seen := map[string]bool{}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		a := aggs[rng.Intn(len(aggs))]
		alias := a[strings.LastIndex(a, "?"):]
		alias = alias[:len(alias)-1]
		if seen[alias] {
			continue
		}
		seen[alias] = true
		sel = append(sel, a)
		cands = append(cands, alias)
	}
	if len(sel) == 0 {
		sel = append(sel, `(COUNT(*) AS ?c)`)
		cands = append(cands, "?c")
	}

	q := "SELECT " + strings.Join(sel, " ") + " WHERE { " + strings.Join(where, " . ") + " }"
	if len(gb) > 0 {
		q += " GROUP BY " + strings.Join(gb, " ")
	}
	if rng.Intn(3) == 0 {
		havings := []string{
			`HAVING (COUNT(*) > 1)`,
			`HAVING (SUM(?a) >= 40)`,
			`HAVING (COUNT(*) > 1 && COUNT(*) < 9)`,
			`HAVING (MIN(?v) != "0")`,
			`HAVING (EXISTS { ?x <urn:name> ?nn })`,
			`HAVING (?a >= 25)`,
		}
		q += " " + havings[rng.Intn(len(havings))]
	}
	if rng.Intn(2) == 0 {
		// Besides keys and aliases, a non-key WHERE variable.
		cands = append(cands, "?a", "?x")
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		var oks []string
		for _, cnd := range cands[:1+rng.Intn(len(cands))] {
			if rng.Intn(2) == 0 {
				oks = append(oks, "DESC("+cnd+")")
			} else {
				oks = append(oks, cnd)
			}
		}
		q += " ORDER BY " + strings.Join(oks, " ")
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf(" OFFSET %d", rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		q += fmt.Sprintf(" LIMIT %d", rng.Intn(6))
	}
	return q
}

// randomAggStore builds a small random store over the aggStore
// vocabulary.
func randomAggStore(rng *rand.Rand) *rdf.Snapshot {
	vals := []string{"1", "2", "10", "abc", "", "0", "NaN", "-4", "3.5"}
	st := rdf.NewStore()
	nNodes := 3 + rng.Intn(8)
	for i := 0; i < 4+rng.Intn(30); i++ {
		n := fmt.Sprintf("urn:n%d", rng.Intn(nNodes))
		switch rng.Intn(5) {
		case 0:
			st.Add(n, "urn:knows", fmt.Sprintf("urn:n%d", rng.Intn(nNodes)))
		case 1:
			st.Add(n, "urn:age", fmt.Sprintf("%d", rng.Intn(40)))
		case 2:
			st.Add(n, "urn:val", vals[rng.Intn(len(vals))])
		case 3:
			st.Add(n, "urn:group", fmt.Sprintf("urn:g%d", rng.Intn(3)))
		default:
			st.Add(n, "urn:name", fmt.Sprintf("p%d", rng.Intn(4)))
		}
	}
	return st.Freeze()
}

// TestAggregateDifferentialRandom runs randomized aggregate queries on
// randomized stores through both evaluators.
func TestAggregateDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	for trial := 0; trial < 300; trial++ {
		sn := randomAggStore(rng)
		diffOrdered(t, sn, randomAggQuery(rng))
	}
}

// TestNulKeyCollision pins the reference's key-packing fix: group keys
// and DISTINCT rows were joined with "\x00", so the tuples ("a\x00",
// "b") and ("a", "\x00b") collided into one group. Length-prefixed
// packing keeps them apart, on the reference and differentially against
// the executor (which groups on ID tuples and never collided).
func TestNulKeyCollision(t *testing.T) {
	st := rdf.NewStore()
	st.Add("urn:s1", "urn:p1", "a\x00")
	st.Add("urn:s1", "urn:p2", "b")
	st.Add("urn:s2", "urn:p1", "a")
	st.Add("urn:s2", "urn:p2", "\x00b")
	sn := st.Freeze()

	group := `SELECT ?k1 ?k2 (COUNT(*) AS ?c) WHERE { ?x <urn:p1> ?k1 . ?x <urn:p2> ?k2 } GROUP BY ?k1 ?k2`
	distinct := `SELECT DISTINCT ?k1 ?k2 WHERE { ?x <urn:p1> ?k1 . ?x <urn:p2> ?k2 }`
	for _, src := range []string{group, distinct} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := queryReference(sn, q, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("reference %q: %d rows, want 2 (NUL-bearing key tuples collided)", src, len(res.Rows))
		}
		diffOrdered(t, sn, src)
	}
}

// TestGroupKeysStayAsIDs pins the dictionary contract of aggregation:
// grouping runs on packed ID tuples and a finalized aggregate is its
// slot's ID, so neither the group keys nor the projected aggregate
// cells cost a Pool.Text call — only an expression that reads a value
// (HAVING here) materializes text, once per group it tests.
func TestGroupKeysStayAsIDs(t *testing.T) {
	st := rdf.NewStore()
	for i := 0; i < 40; i++ {
		for j := 0; j < 5+i%3; j++ {
			st.Add(fmt.Sprintf("urn:s%d", i), "urn:p", fmt.Sprintf("urn:o%d", (i*7+j)%25))
		}
	}
	sn := st.Freeze()

	// 40 groups keyed on ?x, key never projected: no text for the 40
	// keys, the 200 member rows, or the 40 COUNT cells.
	res, calls := runCounted(t, sn, `SELECT (COUNT(?o) AS ?c) WHERE { ?x <urn:p> ?o } GROUP BY ?x`)
	if res.Answer.Len() != 40 {
		t.Fatalf("rows = %d, want 40", res.Answer.Len())
	}
	if calls != 0 {
		t.Fatalf("dictionary lookups = %d, want 0 (aggregate cells stay IDs until serialization)", calls)
	}

	// HAVING reads each group's count once (25 groups over ?o); the
	// survivors' cells and the 25 key IDs still cost zero.
	res2, calls2 := runCounted(t, sn, `SELECT (COUNT(*) AS ?c) WHERE { ?x <urn:p> ?o } GROUP BY ?o HAVING (COUNT(*) > 9)`)
	if n := res2.Answer.Len(); n == 0 || n >= 25 {
		t.Fatalf("unexpected group count %d", n)
	}
	if calls2 != 25 {
		t.Fatalf("dictionary lookups = %d, want 25 (one HAVING read per group)", calls2)
	}
}
