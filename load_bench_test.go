// Load benchmark: what `sparqld -data` pays before it serves, on an
// in-memory N-Triples rendering of a 20k-node gMark Bib graph. "read"
// parses and interns every line into a fresh store, "freeze" builds a
// snapshot's indexes from a loaded one. Both run in CI's bench-artifacts
// job; the end-to-end numbers they explain are bench/'s
// rdf.read_ntriples_s and rdf.freeze_s, whose sum is most of setup_s.
package sparqlog

import (
	"bytes"
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
	})
}
