package pathcomp_test

import (
	"testing"

	"sparqlog/internal/pathcomp"
	"sparqlog/internal/paths"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// fuzzGraph is the small fixed graph every fuzz input evaluates on: a
// p-chain with a cycle-closing r edge, a q branch, and an object-only
// leaf, so closures, inverses and negated sets all have work to do.
func fuzzGraph() *rdf.Snapshot {
	st := rdf.NewStore()
	st.Add("a", "p", "b")
	st.Add("b", "p", "c")
	st.Add("c", "p", "a")
	st.Add("a", "q", "d")
	st.Add("d", "r", "b")
	st.Add("c", "q", "leaf")
	return st.Freeze()
}

// FuzzPathCompile feeds arbitrary path-expression text through parse →
// compile → evaluate: whatever parses must compile without panicking,
// and the compiled engine must agree with the naive interpreter from
// every node of the fixed graph. Seeded with the Table-5 corpus of
// internal/paths so every expression type of the paper is a starting
// point.
func FuzzPathCompile(f *testing.F) {
	for _, ex := range paths.Corpus() {
		f.Add(ex.Expr)
	}
	f.Add("(<p>/<q>)*")
	f.Add("^((<p>|<q>)+)")
	f.Add("!(<p>|^<q>)")
	f.Add("(<p>?/<r>?)+")
	f.Add("<nope>*/<p>")

	sn := fuzzGraph()
	resolve := pathcomp.Resolver(sn.Lookup)
	var nodes []rdf.ID
	for id := rdf.ID(0); int(id) < sn.NumTerms(); id++ {
		if sn.SubjectDegree(id) > 0 || sn.ObjectDegree(id) > 0 {
			nodes = append(nodes, id)
		}
	}

	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 200 {
			return // keep closure sizes bounded
		}
		q, err := sparql.Parse("ASK { ?x " + expr + " ?y }")
		if err != nil {
			return
		}
		for _, pp := range q.PathPatterns() {
			cp := pathcomp.Compile(sn, pp.Path, resolve)
			for _, s := range nodes {
				naive := naiveFrom(sn, s, pp.Path, resolve)
				got := cp.From(s)
				if len(got) != len(naive) {
					t.Fatalf("%q From(%s): compiled %d nodes, naive %d",
						sparql.PathString(pp.Path), sn.TermOf(s), len(got), len(naive))
				}
				for _, n := range got {
					if !naive[n] {
						t.Fatalf("%q From(%s): compiled-only node %s",
							sparql.PathString(pp.Path), sn.TermOf(s), sn.TermOf(n))
					}
				}
				// Holds must agree with membership in the reach set.
				for _, o := range []rdf.ID{s, nodes[0]} {
					if cp.Holds(s, o) != naive[o] {
						t.Fatalf("%q Holds(%s, %s) disagrees with From",
							sparql.PathString(pp.Path), sn.TermOf(s), sn.TermOf(o))
					}
				}
			}
		}
	})
}
