package pathcomp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

func parsePath(t testing.TB, expr string) sparql.PathExpr {
	t.Helper()
	q, err := sparql.Parse("ASK { ?x " + expr + " ?y }")
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	pp := q.PathPatterns()
	if len(pp) != 1 {
		t.Fatalf("%q: want one path pattern, got %d", expr, len(pp))
	}
	return pp[0].Path
}

// chainCycleStore builds a -p-> b -p-> c -p-> d, a -q-> x, c -r-> a.
func chainCycleStore() *rdf.Snapshot {
	st := rdf.NewStore()
	st.Add("a", "p", "b")
	st.Add("b", "p", "c")
	st.Add("c", "p", "d")
	st.Add("a", "q", "x")
	st.Add("c", "r", "a")
	return st.Freeze()
}

func resolverOf(sn *rdf.Snapshot) Resolver {
	return func(iri string) (rdf.ID, bool) { return sn.Lookup(iri) }
}

func names(sn *rdf.Snapshot, ids []rdf.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = sn.TermOf(id)
	}
	return out
}

func TestCompiledEvalBasics(t *testing.T) {
	sn := chainCycleStore()
	a, _ := sn.Lookup("a")
	d, _ := sn.Lookup("d")
	tests := []struct {
		expr string
		want []string
	}{
		{"<p>*", []string{"a", "b", "c", "d"}},
		{"<p>+", []string{"b", "c", "d"}},
		{"<p>?", []string{"a", "b"}},
		{"<p>/<p>", []string{"c"}},
		{"<p>|<q>", []string{"b", "x"}},
		{"(<p>|<r>)*", []string{"a", "b", "c", "d"}},
		{"(<p>/<p>)*", []string{"a", "c"}},
		{"!<p>", []string{"x"}},
		{"!(<p>|<q>)", nil},
		{"!(^<p>)", []string{"c"}},
		{"<q>/<p>", nil},
		// ^<r> from a reaches c (c -r-> a), then <p> reaches d.
		{"^<r>/<p>", []string{"d"}},
	}
	for _, tc := range tests {
		cp := Compile(sn, parsePath(t, tc.expr), resolverOf(sn))
		got := names(sn, cp.From(a))
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("From(a, %s) = %v, want %v", tc.expr, got, tc.want)
		}
	}

	cp := Compile(sn, parsePath(t, "<p>+"), resolverOf(sn))
	if !cp.Holds(a, d) {
		t.Error("a -p+-> d must hold")
	}
	x, _ := sn.Lookup("x")
	if cp.Holds(a, x) {
		t.Error("a -p+-> x must not hold")
	}
	if got := names(sn, cp.To(d)); strings.Join(got, " ") != "a b c" {
		t.Errorf("To(d, <p>+) = %v, want [a b c]", got)
	}
}

func TestFastPathSelection(t *testing.T) {
	sn := chainCycleStore()
	fast := []string{"<p>*", "<p>+", "(<p>|<q>)*", "(<p>|<q>)+", "(^<p>)*", "(^<p>|<q>)*"}
	for _, expr := range fast {
		cp := Compile(sn, parsePath(t, expr), resolverOf(sn))
		if !cp.closure {
			t.Errorf("%s should select the closure fast path", expr)
		}
		if !strings.Contains(cp.Describe(sn.TermOf), "fast path") {
			t.Errorf("Describe(%s) does not mention the fast path", expr)
		}
	}
	slow := []string{"(<p>/<q>)*", "<p>/<q>", "(!<p>)*", "<p>?", "(<p>|<q>)?"}
	for _, expr := range slow {
		cp := Compile(sn, parsePath(t, expr), resolverOf(sn))
		if cp.closure {
			t.Errorf("%s must not select the closure fast path", expr)
		}
	}
}

func TestShapeKeyDistinguishesResolution(t *testing.T) {
	sn := chainCycleStore()
	r := resolverOf(sn)
	kp := ShapeKey(parsePath(t, "<p>*"), r)
	kq := ShapeKey(parsePath(t, "<q>*"), r)
	if kp == kq {
		t.Error("different predicates must produce different shape keys")
	}
	if kp != ShapeKey(parsePath(t, "<p>*"), r) {
		t.Error("shape key must be deterministic")
	}
	kMissing := ShapeKey(parsePath(t, "<nope>*"), r)
	if kMissing == kp {
		t.Error("unresolved atom must not collide with a resolved one")
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	sn := chainCycleStore()
	r := resolverOf(sn)
	c := NewCache(sn)
	p := parsePath(t, "<p>*")
	first := c.Compile(sn, p, r)
	again := c.Compile(sn, p, r)
	if first != again {
		t.Error("same shape must return the cached *Path")
	}
	c.Compile(sn, parsePath(t, "<q>+"), r)
	if c.Hits() != 1 || c.Misses() != 2 || c.Len() != 2 {
		t.Errorf("hits=%d misses=%d len=%d, want 1/2/2", c.Hits(), c.Misses(), c.Len())
	}
	// A foreign snapshot bypasses the cache but still evaluates.
	other := chainCycleStore()
	cp := c.Compile(other, p, resolverOf(other))
	if cp == nil || c.Len() != 2 {
		t.Error("foreign snapshot must compile uncached")
	}
	// A nil cache degrades to plain compilation.
	var nilCache *Cache
	if nilCache.Compile(sn, p, r) == nil {
		t.Error("nil cache must fall back to Compile")
	}
}

// testGraph is a ring of <a>-edges through every node, random
// <a>/<b>/<c> edges, and an <a> self-loop on n00: multi-member
// components, and a singleton component with a loop.
func testGraph(seed int64, nodes, extra int) *rdf.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	st := rdf.NewStore()
	name := func(i int) string { return fmt.Sprintf("n%02d", i) }
	preds := []string{"a", "b", "c"}
	for i := 0; i < nodes; i++ {
		st.Add(name(i), "a", name((i+1)%nodes))
	}
	for i := 0; i < extra; i++ {
		st.Add(name(rng.Intn(nodes)), preds[rng.Intn(len(preds))], name(rng.Intn(nodes)))
	}
	st.Add(name(0), "a", name(0))
	return st.Freeze()
}

func compileExpr(t *testing.T, sn *rdf.Snapshot, expr string) *Path {
	t.Helper()
	return Compile(sn, parsePath(t, expr), resolverOf(sn))
}

// pairExprs covers both sweep engines: the closure fast path (*, +,
// alternation closures) and the general automaton (sequence, inverse,
// optional, negation).
var pairExprs = []string{
	`<a>*`, `<a>+`, `(<a>|<b>)+`, `(<a>|<b>)*`,
	`<a>/<b>`, `^<a>`, `<a>?`, `!<a>`, `<a>/<b>*`,
}

// TestPairsOrderedAndLimited: a both-ends-free sweep enumerates
// subject-major with objects ascending, and a limited sweep is exactly
// the prefix of the unlimited one, on both engines.
func TestPairsOrderedAndLimited(t *testing.T) {
	sn := chainCycleStore()
	// The <p>-edges form the chain a->b->c->d: every forward hop.
	if pairs := compileExpr(t, sn, "<p>+").Pairs(0); len(pairs) != 3+2+1 {
		t.Fatalf("<p>+ on the chain: %d pairs, want 6", len(pairs))
	}
	for _, seed := range []int64{3, 11, 4099} {
		sn := testGraph(seed, 40, 120)
		for _, expr := range pairExprs {
			pa := compileExpr(t, sn, expr)
			full, err := pa.PairsCtx(nil, 0)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, expr, err)
			}
			for i := 1; i < len(full); i++ {
				a, b := full[i-1], full[i]
				if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
					t.Fatalf("seed %d %s: pair %d %v after %v breaks (subject, object) order", seed, expr, i, b, a)
				}
			}
			for _, limit := range []int{1, 5, 37, len(full) - 1, len(full), len(full) + 10} {
				if limit < 1 {
					continue
				}
				got, err := pa.PairsCtx(nil, limit)
				if err != nil {
					t.Fatalf("seed %d %s limit=%d: %v", seed, expr, limit, err)
				}
				if want := full[:min(limit, len(full))]; !slices.Equal(got, want) {
					t.Fatalf("seed %d %s limit=%d: %d pairs, not the first %d of the unlimited sweep", seed, expr, limit, len(got), len(want))
				}
			}
		}
	}
}

func TestDescribeAndEstimate(t *testing.T) {
	sn := chainCycleStore()
	cp := Compile(sn, parsePath(t, "<p>*/<q>"), resolverOf(sn))
	desc := cp.Describe(sn.TermOf)
	if !strings.Contains(desc, "<p>") || !strings.Contains(desc, "<q>") {
		t.Errorf("Describe lost the predicates:\n%s", desc)
	}
	if !strings.Contains(desc, "start") || !strings.Contains(desc, "accept") {
		t.Errorf("Describe lost start/accept markers:\n%s", desc)
	}
	if est := cp.EstimateReach(false); est <= 0 {
		t.Errorf("EstimateReach = %v, want > 0", est)
	}
	if cp.NumStates() < 2 {
		t.Errorf("NumStates = %d for a two-step path", cp.NumStates())
	}
}

func TestUnresolvedAtomsMatchNothing(t *testing.T) {
	sn := chainCycleStore()
	a, _ := sn.Lookup("a")
	// (A bare <nope> folds into a triple pattern at parse time, so the
	// atomic case is exercised through a one-predicate alternation.)
	for _, expr := range []string{"<nope>|<nope>", "<nope>*", "<p>/<nope>", "^<nope>"} {
		cp := Compile(sn, parsePath(t, expr), resolverOf(sn))
		got := cp.From(a)
		// <nope>* still reaches a itself (zero-length path); everything
		// else is empty.
		if expr == "<nope>*" {
			if len(got) != 1 || got[0] != a {
				t.Errorf("From(a, %s) = %v, want [a]", expr, got)
			}
			continue
		}
		if len(got) != 0 {
			t.Errorf("From(a, %s) = %v, want empty", expr, got)
		}
	}
}
