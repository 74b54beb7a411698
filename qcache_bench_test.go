// Result-cache benchmarks: the serving-path win of internal/qcache on
// a heavy recurring query (the paper's workload analysis shows real
// logs repeat the same shapes constantly). Cells: a cache hit against
// the uncached execution it replaces (the speedup claim), the fill
// overhead a cold key pays on top of execution, concurrent duplicate
// requests collapsing onto resident entries, and serialized-body reuse
// versus re-serializing the result. Runs in CI's bench-artifacts job.
package sparqlog

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/qcache"
	"sparqlog/internal/sparql"
)

// cacheBenchQuery is deliberately heavy for a cache cell: the full
// citation table (tens of thousands of rows on the shared bench
// graph). The cells call eval.QueryAnswer, the entry point the serving
// path uses: a hit returns the entry's columnar answer and costs the
// same whatever the row count, so what the cells compare is the
// execution a hit skips against the lookup that replaces it.
const cacheBenchQuery = `PREFIX bib: <http://gmark.bib/p/>
SELECT ?p ?q WHERE { ?p bib:cites ?q }`

func BenchmarkResultCache(b *testing.B) {
	g := plannerBenchGraph(b)
	q, err := sparql.Parse(cacheBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	// Denominator: the plan→exec pipeline a hit skips.
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eval.QueryAnswer(ctx, g.Snapshot, q, eval.Limits{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Answer.Len() == 0 {
				b.Fatal("empty result")
			}
		}
	})

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		c := qcache.New(g.Snapshot, qcache.Options{MinCost: -1})
		lim := eval.Limits{Results: c}
		if _, err := eval.QueryAnswer(ctx, g.Snapshot, q, lim); err != nil {
			b.Fatal(err)
		}
		if c.Entries() == 0 {
			b.Fatal("warm-up did not fill the cache")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eval.QueryAnswer(ctx, g.Snapshot, q, lim)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})

	// Fill: every iteration is a genuinely new key (MaxRows is part of
	// the key), so this measures execution plus lookup-miss, flight and
	// admission (the entry retains the executor's answer: there is no
	// encoding step) — the overhead a cold query pays compared to the
	// uncached cell.
	b.Run("miss-fill", func(b *testing.B) {
		b.ReportAllocs()
		c := qcache.New(g.Snapshot, qcache.Options{MinCost: -1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lim := eval.Limits{Results: c, MaxRows: eval.DefaultMaxRows + 1 + i}
			res, err := eval.QueryAnswer(ctx, g.Snapshot, q, lim)
			if err != nil {
				b.Fatal(err)
			}
			if res.Cached || res.CacheKey == "" {
				b.Fatal("expected a caching miss")
			}
		}
	})

	// Duplicate requests racing over one resident key: the contended
	// hit path (sharded lock + LRU touch; every caller shares the entry).
	b.Run("concurrent-duplicate", func(b *testing.B) {
		b.ReportAllocs()
		c := qcache.New(g.Snapshot, qcache.Options{MinCost: -1})
		lim := eval.Limits{Results: c}
		if _, err := eval.QueryAnswer(ctx, g.Snapshot, q, lim); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				res, err := eval.QueryAnswer(ctx, g.Snapshot, q, lim)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Cached && !res.Collapsed {
					b.Fatal("expected hit or collapse")
				}
			}
		})
	})

	// Serialized-body reuse against re-serializing the rows: the byte
	// slice the server writes on a repeat request in the same format.
	b.Run("body", func(b *testing.B) {
		c := qcache.New(g.Snapshot, qcache.Options{MinCost: -1})
		lim := eval.Limits{Results: c}
		res, err := eval.QueryContext(ctx, g.Snapshot, q, lim)
		if err != nil {
			b.Fatal(err)
		}
		body := serializeTSV(res.Vars, res.Rows)
		const ct = "text/tab-separated-values"
		if _, ok := c.SetBody(res.CacheKey, ct, body); !ok {
			b.Fatal("SetBody refused")
		}
		b.Run("reuse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, _, ok := c.Body(res.CacheKey, ct)
				if !ok || len(got) != len(body) {
					b.Fatal("body lookup failed")
				}
			}
		})
		b.Run("serialize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := serializeTSV(res.Vars, res.Rows); len(got) != len(body) {
					b.Fatal("serialization diverged")
				}
			}
		})
	})
}

// serializeTSV is the bench-local stand-in for the server's TSV result
// writer: header line of variables, one tab-joined line per row. The
// reuse/serialize pair measures the bytes-vs-rebuild gap, not any one
// wire format's quirks.
func serializeTSV(vars []string, rows [][]string) []byte {
	var sb strings.Builder
	sb.WriteString(strings.Join(vars, "\t"))
	sb.WriteByte('\n')
	for _, row := range rows {
		sb.WriteString(strings.Join(row, "\t"))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// BenchmarkConcurrentCachedQueries drives a duplicate-heavy workload
// through the single-flight door from many goroutines at once — the
// stampede a popular dashboard query produces — and reports effective
// queries/s with and without the cache.
func BenchmarkConcurrentCachedQueries(b *testing.B) {
	g := plannerBenchGraph(b)
	q, err := sparql.Parse(cacheBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 8
	run := func(b *testing.B, lim eval.Limits) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if _, err := eval.QueryAnswer(ctx, g.Snapshot, q, lim); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		b.ReportMetric(float64(workers*b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("cached", func(b *testing.B) {
		c := qcache.New(g.Snapshot, qcache.Options{MinCost: -1})
		run(b, eval.Limits{Results: c})
	})
	b.Run("uncached", func(b *testing.B) {
		run(b, eval.Limits{})
	})
}
