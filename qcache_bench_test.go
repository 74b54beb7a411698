// Result-cache benchmarks: the serving-path win of internal/qcache on
// a heavy recurring query (the paper's workload analysis shows real
// logs repeat the same shapes constantly). Cells: a cache hit against
// the uncached execution it replaces (the speedup claim), the fill
// overhead a cold key pays on top of execution, concurrent duplicate
// requests hitting one resident entry, and serialized-body reuse
// versus re-serializing the result. Each cell makes the calls
// sparqld's request path makes: eval.QueryAnswer on a miss, and
// qcache.Get/Put under the server's key. Runs in CI's bench-artifacts
// job.
package sparqlog

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/qcache"
	"sparqlog/internal/sparql"
)

// cacheBenchQuery is deliberately heavy for a cache cell: the full
// citation table (tens of thousands of rows on the shared bench
// graph). A hit returns the entry's columnar answer and costs the same
// whatever the row count, so what the cells compare is the execution a
// hit skips against the lookup that replaces it.
const cacheBenchQuery = `PREFIX bib: <http://gmark.bib/p/>
SELECT ?p ?q WHERE { ?p bib:cites ?q }`

// benchCacheKey is the key sparqld's server files q under at row
// budget maxRows: the budget, a bar, the canonical query text.
func benchCacheKey(q *sparql.Query, maxRows int) string {
	return "mr" + strconv.Itoa(maxRows) + "|" + sparql.QueryString(q)
}

func BenchmarkResultCache(b *testing.B) {
	g := plannerBenchGraph(b)
	sn := g.Snapshot
	q, err := sparql.Parse(cacheBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	lim := eval.Limits{MaxRows: eval.DefaultMaxRows}
	// fill executes q and offers the answer to c under key, as the
	// server does after a clean miss.
	fill := func(b *testing.B, c *qcache.Cache, key string) {
		start := time.Now()
		res, err := eval.QueryAnswer(ctx, sn, q, nil, lim)
		if err != nil {
			b.Fatal(err)
		}
		if !c.Put(sn, key, qcache.Result{Answer: res.Answer}, time.Since(start)) {
			b.Fatal("fill was not admitted")
		}
	}

	// Denominator: the plan→exec pipeline a hit skips.
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eval.QueryAnswer(ctx, sn, q, nil, lim)
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
		c := qcache.New(sn, qcache.Options{MinCost: -1})
		fill(b, c, benchCacheKey(q, lim.MaxRows))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(sn, benchCacheKey(q, lim.MaxRows)); !ok {
				b.Fatal("expected a cache hit")
			}
		}
	})

	// Fill: every iteration is a genuinely new key (the row budget is
	// part of the key), so this measures execution plus the lookup miss
	// and admission (the entry retains the executor's answer: there is
	// no encoding step) — the overhead a cold query pays compared to the
	// uncached cell.
	b.Run("miss-fill", func(b *testing.B) {
		b.ReportAllocs()
		c := qcache.New(sn, qcache.Options{MinCost: -1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := benchCacheKey(q, eval.DefaultMaxRows+1+i)
			if _, ok := c.Get(sn, key); ok {
				b.Fatal("expected a miss")
			}
			fill(b, c, key)
		}
	})

	// Duplicate requests racing over one resident key: the contended
	// hit path (sharded lock + LRU touch; every caller shares the entry).
	b.Run("concurrent-duplicate", func(b *testing.B) {
		b.ReportAllocs()
		c := qcache.New(sn, qcache.Options{MinCost: -1})
		fill(b, c, benchCacheKey(q, lim.MaxRows))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := c.Get(sn, benchCacheKey(q, lim.MaxRows)); !ok {
					b.Fatal("expected a cache hit")
				}
			}
		})
	})

	// Serialized-body reuse against re-serializing the rows: the byte
	// slice the server writes on a repeat request in the same format.
	b.Run("body", func(b *testing.B) {
		c := qcache.New(sn, qcache.Options{MinCost: -1})
		key := benchCacheKey(q, lim.MaxRows)
		fill(b, c, key)
		r, _ := c.Get(sn, key)
		vars, rows := r.Vars, r.Answer.Rows(sn)
		body := serializeTSV(vars, rows)
		const ct = "text/tab-separated-values"
		if _, ok := c.SetBody(key, ct, body); !ok {
			b.Fatal("SetBody refused")
		}
		b.Run("reuse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, _, ok := c.Body(key, ct)
				if !ok || len(got) != len(body) {
					b.Fatal("body lookup failed")
				}
			}
		})
		b.Run("serialize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := serializeTSV(vars, rows); len(got) != len(body) {
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
