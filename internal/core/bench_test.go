package core

import (
	"testing"

	"sparqlog/internal/loggen"
)

// BenchmarkLiveAdd measures the push side per entry with the options
// sparqld runs it under (exact dedup, Lint on). first-seen: every entry
// is a text the analyzer has not met, so each is parsed, linted and
// analyzed (a fresh analyzer whenever the pool of distinct entries
// wraps). repeat: every entry is already in the dedup state, the fate
// of most requests in the paper's logs.
func BenchmarkLiveAdd(b *testing.B) {
	seen := map[string]bool{}
	var pool []string
	for _, e := range loggen.Generate(loggen.Profiles()[0], 20000, 5).Entries {
		if !seen[e] {
			seen[e] = true
			pool = append(pool, e)
		}
	}
	opts := Options{Lint: true}
	b.Run("first-seen", func(b *testing.B) {
		b.ReportAllocs()
		var la *LiveAnalyzer
		for i := 0; i < b.N; i++ {
			if i%len(pool) == 0 {
				la = NewLiveAnalyzer("bench", opts, 1)
			}
			la.Add(pool[i%len(pool)])
		}
	})
	b.Run("repeat", func(b *testing.B) {
		la := NewLiveAnalyzer("bench", opts, 1)
		for _, e := range pool {
			la.Add(e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			la.Add(pool[i%len(pool)])
		}
	})
}
