// Differential suite: the compiled engine must be result-identical to
// the naive interpretive evaluator (reference_test.go) on every Table-5
// expression type — including the inverse-atom and negated-property-set
// variants — over randomized cyclic graphs. This file is the compiled
// engine's correctness contract and runs under -race in CI.
package pathcomp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sparqlog/internal/pathcomp"
	"sparqlog/internal/paths"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

func parsePathExpr(t testing.TB, expr string) sparql.PathExpr {
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

// randCyclicGraph builds a graph guaranteed to contain cycles: a ring
// of <a>-edges through all nodes, plus random <a>/<b>/<c> edges (random
// endpoints freely create further cycles, self-loops included).
func randCyclicGraph(seed int64, nodes, extra int) *rdf.Snapshot {
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
	// Object-only leaves: nodes with no outgoing edges, where reflexive
	// closures must still match zero-length.
	for i := 0; i < 3; i++ {
		st.Add(name(rng.Intn(nodes)), preds[rng.Intn(len(preds))], fmt.Sprintf("leaf%d", i))
	}
	return st.Freeze()
}

// allNodeIDs returns every term appearing in subject or object position.
func allNodeIDs(sn *rdf.Snapshot) []rdf.ID {
	var ids []rdf.ID
	for id := rdf.ID(0); int(id) < sn.NumTerms(); id++ {
		if sn.SubjectDegree(id) > 0 || sn.ObjectDegree(id) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

func TestCompiledMatchesNaiveOnTable5(t *testing.T) {
	for _, seed := range []int64{1, 7, 2017} {
		sn := randCyclicGraph(seed, 24, 60)
		resolve := pathcomp.Resolver(sn.Lookup)
		nodes := allNodeIDs(sn)
		for _, ex := range paths.Corpus() {
			p := parsePathExpr(t, ex.Expr)
			cp := pathcomp.Compile(sn, p, resolve)

			// From: every source, full reach set.
			fromSets := make(map[rdf.ID]map[rdf.ID]bool, len(nodes))
			for _, s := range nodes {
				naive := naiveFrom(sn, s, p, resolve)
				fromSets[s] = naive
				got := cp.From(s)
				if len(got) != len(naive) {
					t.Fatalf("seed %d %s From(%s): compiled %d nodes, naive %d",
						seed, ex.Expr, sn.TermOf(s), len(got), len(naive))
				}
				for i, n := range got {
					if !naive[n] {
						t.Fatalf("seed %d %s From(%s): compiled-only node %s",
							seed, ex.Expr, sn.TermOf(s), sn.TermOf(n))
					}
					if i > 0 && got[i-1] >= n {
						t.Fatalf("seed %d %s From(%s): result not sorted", seed, ex.Expr, sn.TermOf(s))
					}
				}
			}

			// To: the reverse image must invert From exactly.
			for _, o := range nodes {
				want := map[rdf.ID]bool{}
				for s, reach := range fromSets {
					if reach[o] {
						want[s] = true
					}
				}
				got := cp.To(o)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s To(%s): compiled %d sources, naive %d",
						seed, ex.Expr, sn.TermOf(o), len(got), len(want))
				}
				for _, s := range got {
					if !want[s] {
						t.Fatalf("seed %d %s To(%s): compiled-only source %s",
							seed, ex.Expr, sn.TermOf(o), sn.TermOf(s))
					}
				}
			}

			// Loops: exactly the nodes whose reach set contains
			// themselves.
			var wantLoops []rdf.ID
			for _, s := range nodes {
				if fromSets[s][s] {
					wantLoops = append(wantLoops, s)
				}
			}
			gotLoops := cp.Loops()
			if len(gotLoops) != len(wantLoops) {
				t.Fatalf("seed %d %s Loops: compiled %d, naive %d",
					seed, ex.Expr, len(gotLoops), len(wantLoops))
			}
			for i := range gotLoops {
				if gotLoops[i] != wantLoops[i] {
					t.Fatalf("seed %d %s Loops[%d] = %s, want %s",
						seed, ex.Expr, i, sn.TermOf(gotLoops[i]), sn.TermOf(wantLoops[i]))
				}
			}

			// Holds: every ordered node pair, both directions of the
			// direction-choice heuristic exercised by the variety of
			// endpoint degrees.
			for _, s := range nodes {
				for _, o := range nodes {
					if got, want := cp.Holds(s, o), fromSets[s][o]; got != want {
						t.Fatalf("seed %d %s Holds(%s, %s) = %v, naive %v",
							seed, ex.Expr, sn.TermOf(s), sn.TermOf(o), got, want)
					}
				}
			}

			// Pairs: identical pair sets, unlimited.
			refPairs := naivePairs(sn, p, resolve, 0)
			naiveSet := make(map[[2]rdf.ID]bool, len(refPairs))
			for _, pr := range refPairs {
				naiveSet[pr] = true
			}
			gotPairs := cp.Pairs(0)
			if len(gotPairs) != len(naiveSet) {
				t.Fatalf("seed %d %s Pairs: compiled %d, naive %d distinct",
					seed, ex.Expr, len(gotPairs), len(naiveSet))
			}
			for _, pr := range gotPairs {
				if !naiveSet[pr] {
					t.Fatalf("seed %d %s Pairs: compiled-only pair (%s, %s)",
						seed, ex.Expr, sn.TermOf(pr[0]), sn.TermOf(pr[1]))
				}
			}

			// A limited enumeration returns exactly min(limit, total).
			if total := len(gotPairs); total > 1 {
				if lim := cp.Pairs(total - 1); len(lim) != total-1 {
					t.Fatalf("seed %d %s Pairs(limit): got %d, want %d",
						seed, ex.Expr, len(lim), total-1)
				}
			}
		}
	}
}

// TestCompiledMatchesNaiveDeepNesting covers expressions beyond Table 5
// (nested closures, negated sets under modifiers, inverses over groups)
// that only the general product automaton can run.
func TestCompiledMatchesNaiveDeepNesting(t *testing.T) {
	exprs := []string{
		"((<a>|<b>)/<c>?)*",
		"^(<a>/<b>)",
		"(^(<a>/<b>))+",
		"(!(<a>|^<b>))*",
		"((<a>+)|(<b>/<c>))?",
		"(<a>?/<b>?)+",
		"^((<a>|<b>)*)",
		"(!<a>/!<b>)+",
	}
	for _, seed := range []int64{3, 11} {
		sn := randCyclicGraph(seed, 16, 40)
		resolve := pathcomp.Resolver(sn.Lookup)
		nodes := allNodeIDs(sn)
		for _, expr := range exprs {
			p := parsePathExpr(t, expr)
			cp := pathcomp.Compile(sn, p, resolve)
			for _, s := range nodes {
				naive := naiveFrom(sn, s, p, resolve)
				got := cp.From(s)
				if len(got) != len(naive) {
					t.Fatalf("seed %d %s From(%s): compiled %d nodes, naive %d (compiled %v)",
						seed, expr, sn.TermOf(s), len(got), len(naive), got)
				}
				for _, n := range got {
					if !naive[n] {
						t.Fatalf("seed %d %s From(%s): compiled-only node %s",
							seed, expr, sn.TermOf(s), sn.TermOf(n))
					}
				}
			}
		}
	}
}
