// Package sparqlog's root benchmark harness: one benchmark per table and
// figure of the paper (see DESIGN.md's experiment index), plus ablation
// benchmarks for the design choices called out there. Each BenchmarkXxx
// regenerates its table/figure end to end; EXPERIMENTS.md records the
// paper-vs-measured comparison produced by cmd/sparqlanalyze.
package sparqlog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/analysis"
	"sparqlog/internal/core"
	"sparqlog/internal/engine"
	"sparqlog/internal/eval"
	"sparqlog/internal/gmark"
	"sparqlog/internal/graph"
	"sparqlog/internal/lint"
	"sparqlog/internal/loggen"
	"sparqlog/internal/plan"
	"sparqlog/internal/repro"
	"sparqlog/internal/service"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
	"sparqlog/internal/streaks"
)

// benchConfig keeps the full suite runnable in a few minutes.
func benchConfig() repro.Config {
	return repro.Config{
		Scale:         0.00005,
		Seed:          2017,
		StreakLogSize: 1500,
	}
}

var (
	corpusOnce sync.Once
	corpus     []loggen.Dataset
)

func benchCorpus() []loggen.Dataset {
	corpusOnce.Do(func() {
		corpus = loggen.GenerateCorpus(benchConfig().Scale, benchConfig().Seed)
	})
	return corpus
}

// BenchmarkTable1CorpusSizes regenerates Table 1: cleaning, parsing, and
// deduplicating all 13 logs.
func BenchmarkTable1CorpusSizes(b *testing.B) {
	ds := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := core.NewCorpusReport("Total")
		for _, d := range ds {
			total.Merge(core.AnalyzeLog(d.Name, d.Entries, core.Options{SkipShapes: true}))
		}
		if total.Unique == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkTable2Keywords regenerates the keyword counts of Table 2.
func BenchmarkTable2Keywords(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := 0
		for _, q := range qs {
			k := analysis.QueryKeywords(q)
			if k.Select || k.Ask {
				counts++
			}
		}
		if counts == 0 {
			b.Fatal("no queries")
		}
	}
}

// BenchmarkFigure1Triples regenerates the triple-count histogram.
func BenchmarkFigure1Triples(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hist [core.SizeHistBuckets]int
		for _, q := range qs {
			tc := analysis.TripleCount(q)
			if tc >= len(hist) {
				tc = len(hist) - 1
			}
			hist[tc]++
		}
	}
}

// BenchmarkTable3OperatorSets regenerates the operator-set distribution.
func BenchmarkTable3OperatorSets(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := analysis.NewDistribution()
		for _, q := range qs {
			if q.Type == sparql.SelectQuery || q.Type == sparql.AskQuery {
				d.Add(analysis.Operators(q))
			}
		}
		if d.Total == 0 {
			b.Fatal("no select/ask queries")
		}
	}
}

// BenchmarkSec44Projection regenerates the projection and subquery rates.
func BenchmarkSec44Projection(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var yes, ind, sub int
		for _, q := range qs {
			switch analysis.Projection(q) {
			case analysis.UsesProjection:
				yes++
			case analysis.Indeterminate:
				ind++
			}
			if analysis.UsesSubqueries(q) {
				sub++
			}
		}
		_ = yes + ind + sub
	}
}

// BenchmarkFigure3ChainCycle regenerates the chain/cycle engine
// comparison (scaled down; run cmd/shapebench for the full figure).
func BenchmarkFigure3ChainCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data := engine.Figure3(6000, 8, benchConfig().Seed, 400*time.Millisecond)
		if len(data.Lengths) != 6 {
			b.Fatal("missing workloads")
		}
	}
}

// BenchmarkFigure5FragmentSizes regenerates the CQ-like size histogram.
func BenchmarkFigure5FragmentSizes(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cq, cqf, cqof int
		for _, q := range qs {
			f := analysis.ClassifyFragments(q)
			if f.CQ {
				cq++
			}
			if f.CQF {
				cqf++
			}
			if f.CQOF {
				cqof++
			}
		}
		if cq > cqf || cqf > cqof+cq {
			_ = cq
		}
	}
}

// BenchmarkTable4Shapes regenerates the cumulative shape analysis.
func BenchmarkTable4Shapes(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counts core.ShapeCounts
		_ = counts
		classified := 0
		for _, q := range qs {
			f := analysis.ClassifyFragments(q)
			if !f.CQ || f.HasVarPredicate {
				continue
			}
			g, _ := shapes.CanonicalGraph(q.Triples(), shapes.Options{})
			r := shapes.Classify(g)
			if r.FlowerSet || r.Treewidth >= 0 {
				classified++
			}
		}
		if classified == 0 {
			b.Fatal("nothing classified")
		}
	}
}

// BenchmarkSec61Girth regenerates the shortest-cycle analysis.
func BenchmarkSec61Girth(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := map[int]int{}
		for _, q := range qs {
			f := analysis.ClassifyFragments(q)
			if !f.CQ || f.HasVarPredicate {
				continue
			}
			g, _ := shapes.CanonicalGraph(q.Triples(), shapes.Options{})
			if gi := g.Girth(); gi > 0 {
				hist[gi]++
			}
		}
	}
}

// BenchmarkSec62Hypertree regenerates the hypertree-width analysis of
// predicate-variable queries.
func BenchmarkSec62Hypertree(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			f := analysis.ClassifyFragments(q)
			if !f.CQOF || !f.HasVarPredicate {
				continue
			}
			h := shapes.CanonicalHypergraph(q.Triples(), shapes.Options{})
			h.GHW(3)
		}
	}
}

// BenchmarkTable5Paths regenerates the property-path classification.
func BenchmarkTable5Paths(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := core.NewCorpusReport("paths").Paths
		for _, q := range qs {
			for _, pp := range q.PathPatterns() {
				tab.Add(pp.Path)
			}
		}
	}
}

// BenchmarkTable6Streaks regenerates the streak-length histogram on one
// synthetic single-day DBpedia log.
func BenchmarkTable6Streaks(b *testing.B) {
	prof := loggen.Profiles()[2] // DBpedia14
	ds := loggen.Generate(prof, benchConfig().StreakLogSize, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := streaks.Find(ds.Entries, streaks.Options{})
		streaks.HistogramOf(found)
	}
}

// BenchmarkAppendixValidCorpus regenerates the appendix variant (Tables
// 7-9): the duplicate-containing Valid corpus.
func BenchmarkAppendixValidCorpus(b *testing.B) {
	ds := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := core.NewCorpusReport("Total")
		for _, d := range ds {
			total.Merge(core.AnalyzeLog(d.Name, d.Entries, core.Options{KeepDuplicates: true, SkipShapes: true}))
		}
	}
}

// ---------- Ablation benchmarks (DESIGN.md "Design choices") ----------

// BenchmarkAblationLevenshtein contrasts the full edit-distance DP with
// the banded early-exit variant used by streak detection.
func BenchmarkAblationLevenshtein(b *testing.B) {
	prof := loggen.Profiles()[0]
	ds := loggen.Generate(prof, 200, 11)
	qs := ds.Entries
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 1; j < len(qs); j++ {
				a, c := qs[j-1], qs[j]
				longer := len(a)
				if len(c) > longer {
					longer = len(c)
				}
				_ = streaks.Levenshtein(a, c) <= longer/4
			}
		}
	})
	b.Run("banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 1; j < len(qs); j++ {
				streaks.Similar(qs[j-1], qs[j], 0.25)
			}
		}
	})
}

// BenchmarkAblationShapeFastPath contrasts the O(V+E) shape predicates
// with the generic exact treewidth computation they short-circuit.
func BenchmarkAblationShapeFastPath(b *testing.B) {
	// A 60-node tree: the predicate answers instantly; exact treewidth
	// has to work for it.
	g := graph.New(60)
	for i := 1; i < 60; i++ {
		g.AddEdge(i, (i-1)/2)
	}
	b.Run("predicates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !g.IsTree() {
				b.Fatal("not a tree")
			}
		}
	})
	b.Run("treewidth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.Treewidth() != 1 {
				b.Fatal("bad width")
			}
		}
	})
}

// BenchmarkAblationIndexes contrasts indexed lookup with a full predicate
// scan for bound-subject access, justifying the store's four index
// orderings.
func BenchmarkAblationIndexes(b *testing.B) {
	g := gmark.Generate(gmark.Config{Nodes: 4000, Seed: 5})
	st := g.Snapshot
	pid := g.PredID["cites"]
	subjects := g.Nodes[gmark.Paper]
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := subjects[i%len(subjects)]
			_ = st.Objects(s, pid)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := subjects[i%len(subjects)]
			n := 0
			for _, t := range st.ScanPredicate(pid) {
				if t.S == s {
					n++
				}
			}
		}
	})
}

// BenchmarkAblationParallelPipeline contrasts the serial reference
// analyzer with the worker-pool engine (the paper's corpus is 180M
// queries; the pipeline must scale with cores).
func BenchmarkAblationParallelPipeline(b *testing.B) {
	ds := loggen.Generate(loggen.Profiles()[0], 3000, 21)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.AnalyzeLog(ds.Name, ds.Entries, core.Options{})
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&core.StreamAnalyzer{}).AnalyzeSeq(ds.Name, slices.Values(ds.Entries))
		}
	})
}

// BenchmarkAblationDedup contrasts exact-text with structural
// (fingerprint) deduplication.
func BenchmarkAblationDedup(b *testing.B) {
	ds := loggen.Generate(loggen.Profiles()[0], 2000, 23)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.AnalyzeLog(ds.Name, ds.Entries, core.Options{SkipShapes: true})
		}
	})
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.AnalyzeLog(ds.Name, ds.Entries, core.Options{SkipShapes: true, StructuralDedup: true})
		}
	})
}

// BenchmarkStreamAnalyze runs the streaming sharded pipeline over a log
// read from disk, the way sparqlanalyze -log does; allocations stay
// bounded by chunks instead of the whole log.
func BenchmarkStreamAnalyze(b *testing.B) {
	path := streamBenchLog(b)
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(info.Size())
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			sa := &core.StreamAnalyzer{}
			rep, err := sa.AnalyzeReader("bench", f, core.FormatPlain)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Unique == 0 {
				b.Fatal("empty report")
			}
		}
	})
}

const streamBenchEntries = 30000

var (
	streamLogOnce sync.Once
	streamLogPath string
	streamLogErr  error
)

// streamBenchLog writes the streaming benchmark's log to disk once per
// test-process, via the generator's streaming emitter.
func streamBenchLog(b *testing.B) string {
	b.Helper()
	streamLogOnce.Do(func() {
		f, err := os.CreateTemp("", "sparqlog-bench-*.log")
		if err != nil {
			streamLogErr = err
			return
		}
		if err := loggen.WriteLog(f, loggen.Profiles()[0], streamBenchEntries, 2017); err != nil {
			streamLogErr = err
			f.Close()
			os.Remove(f.Name())
			return
		}
		streamLogErr = f.Close()
		streamLogPath = f.Name()
	})
	if streamLogErr != nil {
		b.Fatal(streamLogErr)
	}
	return streamLogPath
}

// BenchmarkConcurrentQueries runs a gMark cycle workload's SPARQL text
// through the service layer's worker pool over one shared snapshot, at
// one, two and four workers, and at four workers sharing one plan cache
// (the serving configuration: recurring query shapes are planned once).
// On a multi-core machine the parallel cells should scale with workers;
// per-query results stay identical. CI also runs it under -race.
func BenchmarkConcurrentQueries(b *testing.B) {
	g := gmark.Generate(gmark.Config{Nodes: 6000, Seed: 13})
	var queries []*sparql.Query
	for _, q := range g.Workload(gmark.Cycle, 5, 32, 17) {
		pq, err := sparql.Parse(q.SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, pq)
	}
	run := func(b *testing.B, opt service.QueryOptions) {
		opt.Timeout = 2 * time.Second
		for i := 0; i < b.N; i++ {
			rep := service.RunQueries(context.Background(), g.Snapshot, queries, opt)
			for _, o := range rep.Outcomes {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
		b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, service.QueryOptions{Workers: 1}) })
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			run(b, service.QueryOptions{Workers: workers})
		})
	}
	b.Run("parallel-4-plancache", func(b *testing.B) {
		run(b, service.QueryOptions{Workers: 4, Plans: plan.NewCache(g.Snapshot)})
	})
}

// ---------- Component micro-benchmarks ----------

// BenchmarkParser measures single-query parse throughput.
func BenchmarkParser(b *testing.B) {
	src := `PREFIX dbo: <http://dbpedia.org/ontology/>
		SELECT DISTINCT ?s ?o WHERE {
			?s dbo:birthPlace ?o . ?o dbo:country ?c .
			OPTIONAL { ?s dbo:deathPlace ?d }
			FILTER (lang(?o) = "en")
		} ORDER BY ?s LIMIT 100`
	p := &sparql.Parser{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLintRun measures the whole pass suite on one query, cycling
// through the distinct valid queries of the bench corpus (the sizes and
// operator mix of the paper's logs): what sparqld pays per request and
// the study per analyzed query under -lint.
func BenchmarkLintRun(b *testing.B) {
	qs := parsedBenchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintSink = lint.Run(qs[i%len(qs)])
	}
}

var lintSink *lint.Result

// BenchmarkSerializer measures AST-to-text throughput.
func BenchmarkSerializer(b *testing.B) {
	q, err := sparql.Parse("SELECT * WHERE { ?s <p> ?o . ?o <q> ?z FILTER(?z > 3) }")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.String()
	}
}

// BenchmarkEvaluator measures full SPARQL evaluation (parse + algebra)
// over a gMark Bib instance.
func BenchmarkEvaluator(b *testing.B) {
	g := gmark.Generate(gmark.Config{Nodes: 2000, Seed: 7})
	q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
		SELECT ?r (COUNT(*) AS ?n) WHERE { ?p bib:authoredBy ?r . ?p bib:cites ?q }
		GROUP BY ?r ORDER BY DESC(?n) LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Query(g.Snapshot, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathEvaluation measures transitive-closure path evaluation.
func BenchmarkPathEvaluation(b *testing.B) {
	g := gmark.Generate(gmark.Config{Nodes: 4000, Seed: 7})
	q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
		SELECT ?x WHERE { <http://gmark.bib/paper/2000> bib:cites+ ?x }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Query(g.Snapshot, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShapeClassifier measures the full shape pipeline on a flower.
func BenchmarkShapeClassifier(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("SELECT * WHERE { ")
	for p := 0; p < 4; p++ {
		sb.WriteString("?c <p> ?a")
		sb.WriteString(itoa(p))
		sb.WriteString(" . ?a")
		sb.WriteString(itoa(p))
		sb.WriteString(" <p> ?t . ")
	}
	sb.WriteString("}")
	q, err := sparql.Parse(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	triples := q.Triples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := shapes.CanonicalGraph(triples, shapes.Options{})
		shapes.Classify(g)
	}
}

// TestMain cleans up the streaming benchmark's temp log, if one was
// written.
func TestMain(m *testing.M) {
	code := m.Run()
	if streamLogPath != "" {
		os.Remove(streamLogPath)
	}
	os.Exit(code)
}

// ---------- harness smoke test ----------

// TestBenchHarnessSmoke gives the root package real test coverage (`go
// test .` used to report "no tests to run"): it drives every benchmark's
// setup path at tiny scale, so a broken harness fails `go test ./...`
// instead of rotting until someone runs -bench.
func TestBenchHarnessSmoke(t *testing.T) {
	// Corpus analytics: Tables 1-5, Figures 1/5, appendix variant.
	ds := loggen.Generate(loggen.Profiles()[0], 400, 2017)
	rep := core.AnalyzeLog(ds.Name, ds.Entries, core.Options{})
	if rep.Unique == 0 || rep.SelectAsk == 0 {
		t.Fatalf("tiny corpus produced no analyzable queries: %+v", rep)
	}
	if v := core.AnalyzeLog(ds.Name, ds.Entries, core.Options{KeepDuplicates: true}); v.Unique < rep.Unique {
		t.Error("appendix (valid) corpus must be at least the unique corpus")
	}

	// Per-query analyses over parsed queries.
	p := &sparql.Parser{}
	var qs []*sparql.Query
	for _, e := range ds.Entries {
		if q, err := p.Parse(e); err == nil {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		t.Fatal("no parseable queries")
	}
	dist := analysis.NewDistribution()
	paths := core.NewCorpusReport("smoke").Paths
	for _, q := range qs {
		analysis.QueryKeywords(q)
		analysis.TripleCount(q)
		analysis.Projection(q)
		analysis.UsesSubqueries(q)
		f := analysis.ClassifyFragments(q)
		if q.Type == sparql.SelectQuery || q.Type == sparql.AskQuery {
			dist.Add(analysis.Operators(q))
		}
		for _, pp := range q.PathPatterns() {
			paths.Add(pp.Path)
		}
		if f.CQ && !f.HasVarPredicate {
			g, _ := shapes.CanonicalGraph(q.Triples(), shapes.Options{})
			shapes.Classify(g)
			g.Girth()
		}
		if f.CQOF && f.HasVarPredicate {
			shapes.CanonicalHypergraph(q.Triples(), shapes.Options{}).GHW(3)
		}
	}
	if dist.Total == 0 {
		t.Error("no operator sets recorded")
	}

	// Engine comparison (Figure 3) and ablations' gMark setup.
	if _, data := engine.Figure3(400, 2, 7, 50*time.Millisecond); len(data.Lengths) != 6 {
		t.Error("figure3 setup lost workloads")
	}
	g := gmark.Generate(gmark.Config{Nodes: 300, Seed: 1})
	if len(g.Workload(gmark.Cycle, 3, 2, 3)) == 0 {
		t.Error("empty gMark workload")
	}
	if len(g.Snapshot.ScanPredicate(g.PredID["cites"])) == 0 {
		t.Error("gMark store missing cites edges")
	}

	// Streak detection (Table 6) and the Levenshtein ablation pair.
	found := streaks.Find(ds.Entries, streaks.Options{})
	streaks.HistogramOf(found)
	if a, b := ds.Entries[0], ds.Entries[1]; streaks.Levenshtein(a, b) < 0 {
		t.Error("negative edit distance")
	} else {
		streaks.Similar(a, b, 0.25)
	}

	core.AnalyzeLog(ds.Name, ds.Entries, core.Options{StructuralDedup: true, SkipShapes: true})
	// The streaming pipeline must agree on the tiny corpus.
	path := filepath.Join(t.TempDir(), "smoke.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loggen.WriteLog(f, loggen.Profiles()[0], 400, 2017); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sa := &core.StreamAnalyzer{Workers: 2}
	streamed, err := sa.AnalyzeReader(ds.Name, rf, core.FormatPlain)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Unique != rep.Unique || streamed.Total != rep.Total {
		t.Errorf("streamed report %d/%d differs from sequential %d/%d",
			streamed.Total, streamed.Unique, rep.Total, rep.Unique)
	}

	// Evaluator micro-benchmark setup.
	q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/>
		SELECT ?x WHERE { ?p bib:authoredBy ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Query(g.Snapshot, q); err != nil {
		t.Fatal(err)
	}
	if q.String() == "" {
		t.Error("serializer produced empty text")
	}

	// Shape fast-path ablation setup.
	tree := graph.New(30)
	for i := 1; i < 30; i++ {
		tree.AddEdge(i, (i-1)/2)
	}
	if !tree.IsTree() || tree.Treewidth() != 1 {
		t.Error("tree graph misclassified")
	}
}

// ---------- helpers ----------

var (
	parsedOnce sync.Once
	parsed     []*sparql.Query
)

// parsedBenchQueries parses the bench corpus once and shares the ASTs.
func parsedBenchQueries(b *testing.B) []*sparql.Query {
	b.Helper()
	parsedOnce.Do(func() {
		p := &sparql.Parser{}
		seen := map[string]bool{}
		for _, ds := range benchCorpus() {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				q, err := p.Parse(e)
				if err != nil {
					continue
				}
				seen[e] = true
				parsed = append(parsed, q)
			}
		}
	})
	if len(parsed) == 0 {
		b.Fatal("no parsed queries")
	}
	return parsed
}

func itoa(v int) string {
	return string(rune('0' + v))
}
