// Load benchmark: what `sparqld -data` pays before it serves, on an
// in-memory N-Triples rendering of a 20k-node gMark Bib graph. "read"
// parses and interns every line into a fresh store, "freeze" builds a
// snapshot's indexes from a loaded one and reports the heap a snapshot
// retains per triple (B/triple). Both run in CI's bench-artifacts
// job; the end-to-end numbers they explain are bench/'s
// rdf.read_ntriples_s and rdf.freeze_s, whose sum is most of setup_s.
package sparqlog

import (
	"bytes"
	"runtime"
	"testing"

	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
)

var loadSink *rdf.Snapshot

func BenchmarkLoad(b *testing.B) {
	var nt bytes.Buffer
	if err := gmark.Generate(gmark.Config{Nodes: 20000, Seed: 1}).Snapshot.WriteNTriples(&nt); err != nil {
		b.Fatal(err)
	}
	read := func(b *testing.B) *rdf.Store {
		st := rdf.NewStore()
		if _, err := st.ReadNTriples(bytes.NewReader(nt.Bytes())); err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(nt.Len()))
		for i := 0; i < b.N; i++ {
			read(b)
		}
	})
	b.Run("freeze", func(b *testing.B) {
		st := read(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loadSink = st.Freeze()
		}
		b.StopTimer()
		// B/triple is the live heap a snapshot retains once its builder
		// is gone (dictionary, term table, indexes and statistics), per
		// distinct triple, measured across two garbage collections the
		// way bench/ measures rdf.bytes_per_triple.
		var before, after runtime.MemStats
		loadSink = nil
		runtime.GC()
		runtime.ReadMemStats(&before)
		loadSink = read(b).Freeze()
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(loadSink.Len()), "B/triple")
	})
}
