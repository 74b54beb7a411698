// Property-path benchmarks: the compiled NFA/bitset engine
// (internal/pathcomp) on the graph shapes and Table-5 expression types
// that dominate endpoint logs. BenchmarkPathShapes and BenchmarkPathPairs
// run in CI's bench-artifacts job, which keeps the numbers and compares
// them to nothing.
package sparqlog

import (
	"fmt"
	"sync"
	"testing"

	"sparqlog/internal/pathcomp"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// pathBenchGraph is one benchmark substrate: a frozen snapshot plus a
// deterministic set of source nodes to evaluate from.
type pathBenchGraph struct {
	sn      *rdf.Snapshot
	sources []rdf.ID
}

var (
	pathGraphsOnce sync.Once
	pathGraphs     map[string]*pathBenchGraph
	pathPairsGraph *pathBenchGraph
)

// buildPathGraphs constructs the four shape graphs over predicates <a>
// and <b>:
//
//	star:  hub -a-> leaf_i, leaf_i -b-> hub          (2000 nodes)
//	chain: n_i -a-> n_{i+1}, every 8th n_i -b-> n_0  (4000 nodes)
//	cycle: 100-node a-rings, b-bridges between rings (4000 nodes)
//	grid:  40x40, a = right, b = down                (1600 nodes)
//
// and the 10k-node cyclic graph of BenchmarkPathPairs (100 a-rings of
// 100 nodes; all-pairs a* closure is 100 targets per source).
func buildPathGraphs() {
	pathGraphs = map[string]*pathBenchGraph{}
	name := func(i int) string { return fmt.Sprintf("urn:n%d", i) }

	pick := func(sn *rdf.Snapshot, names ...string) []rdf.ID {
		var ids []rdf.ID
		for _, n := range names {
			if id, ok := sn.Lookup(n); ok {
				ids = append(ids, id)
			}
		}
		return ids
	}

	{ // star
		st := rdf.NewStore()
		for i := 1; i < 2000; i++ {
			st.Add("urn:hub", "urn:a", name(i))
			st.Add(name(i), "urn:b", "urn:hub")
		}
		sn := st.Freeze()
		pathGraphs["star"] = &pathBenchGraph{sn, pick(sn, "urn:hub", name(1), name(500), name(1000))}
	}
	{ // chain
		st := rdf.NewStore()
		for i := 0; i < 3999; i++ {
			st.Add(name(i), "urn:a", name(i+1))
		}
		// Every node has a b-edge back to its 8-block head, so seq and
		// starseq have matches from any source and b-jumps create cycles.
		for i := 0; i < 4000; i++ {
			st.Add(name(i), "urn:b", name(i-i%8))
		}
		sn := st.Freeze()
		pathGraphs["chain"] = &pathBenchGraph{sn, pick(sn, name(0), name(1000), name(2000), name(3500))}
	}
	{ // cycle
		st := rdf.NewStore()
		const ring = 100
		for i := 0; i < 4000; i++ {
			next := i - i%ring + (i+1)%ring
			st.Add(name(i), "urn:a", name(next))
			if i%ring == 0 {
				st.Add(name(i), "urn:b", name((i+ring)%4000))
			}
		}
		sn := st.Freeze()
		pathGraphs["cycle"] = &pathBenchGraph{sn, pick(sn, name(0), name(150), name(2050), name(3999))}
	}
	{ // grid
		st := rdf.NewStore()
		const w = 40
		cell := func(x, y int) string { return fmt.Sprintf("urn:g%d_%d", x, y) }
		for y := 0; y < w; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					st.Add(cell(x, y), "urn:a", cell(x+1, y))
				}
				if y+1 < w {
					st.Add(cell(x, y), "urn:b", cell(x, y+1))
				}
			}
		}
		sn := st.Freeze()
		pathGraphs["grid"] = &pathBenchGraph{sn, pick(sn, cell(0, 0), cell(20, 20), cell(39, 0), cell(0, 39))}
	}
	{ // pairs: 10k-node cyclic graph
		st := rdf.NewStore()
		const ring = 100
		for i := 0; i < 10000; i++ {
			next := i - i%ring + (i+1)%ring
			st.Add(name(i), "urn:a", name(next))
		}
		pathPairsGraph = &pathBenchGraph{sn: st.Freeze()}
	}
}

func pathBenchSetup(b *testing.B) {
	b.Helper()
	pathGraphsOnce.Do(buildPathGraphs)
}

func parseBenchPath(b *testing.B, expr string) sparql.PathExpr {
	b.Helper()
	q, err := sparql.Parse("ASK { ?x " + expr + " ?y }")
	if err != nil {
		b.Fatal(err)
	}
	pp := q.PathPatterns()
	if len(pp) != 1 {
		b.Fatalf("%q: want one path pattern", expr)
	}
	return pp[0].Path
}

// BenchmarkPathShapes measures single-source path evaluation (the
// subject-bound case the executor's path operator hits) for the dominant
// Table-5 types on the four graph shapes, on a pre-compiled automaton:
// the evaluator compiles once per path pattern and evaluates it per
// binding, so per-evaluation cost is what serving pays.
func BenchmarkPathShapes(b *testing.B) {
	pathBenchSetup(b)
	exprs := []struct{ name, expr string }{
		{"star", "<urn:a>*"},
		{"plus", "<urn:a>+"},
		{"altstar", "(<urn:a>|<urn:b>)*"},
		{"seq", "<urn:a>/<urn:b>"},
		{"starseq", "<urn:a>*/<urn:b>"},
	}
	for _, gname := range []string{"star", "chain", "cycle", "grid"} {
		g := pathGraphs[gname]
		for _, ex := range exprs {
			p := parseBenchPath(b, ex.expr)
			b.Run(gname+"/"+ex.name+"/compiled", func(b *testing.B) {
				cp := pathcomp.Compile(g.sn, p, g.sn.Lookup)
				b.ResetTimer()
				total := 0
				for i := 0; i < b.N; i++ {
					for _, s := range g.sources {
						total += len(cp.From(s))
					}
				}
				if b.N > 0 && total == 0 {
					b.Fatal("benchmark evaluated to nothing")
				}
			})
		}
	}
}

// BenchmarkPathPairs measures the fully unbound case — enumerate every
// (subject, object) pair of <urn:a>* — on the 10k-node cyclic graph
// (100 rings of 100 nodes: one million pairs). This is the acceptance
// workload for the compiled engine's multi-source sweep.
func BenchmarkPathPairs(b *testing.B) {
	pathBenchSetup(b)
	g := pathPairsGraph
	p := parseBenchPath(b, "<urn:a>*")
	const wantPairs = 10000 * 100
	b.Run("cycle10k/compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pairs, _ := pathcomp.Compile(g.sn, p, g.sn.Lookup).PairsCtx(nil, 0)
			if got := len(pairs); got != wantPairs {
				b.Fatalf("pairs = %d, want %d", got, wantPairs)
			}
		}
	})
}
