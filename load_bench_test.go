// Load benchmark: what `sparqld -data` pays before it serves, on an
// in-memory N-Triples file shaped like bench/'s dataset at 20k nodes.
// "read" parses and interns every line into a fresh store, "shuffled"
// reads the same lines in a fixed random order (not grouped by
// subject), and "freeze" builds a snapshot's indexes from a loaded one
// and reports the heap a snapshot retains per triple (B/triple). They run in CI's bench-artifacts job; the end-to-end
// numbers they explain are bench/'s rdf.read_ntriples_s and
// rdf.freeze_s, whose sum is most of setup_s.
package sparqlog

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
)

var loadSink *rdf.Snapshot

// loadInput returns the N-Triples of a 20k-node gMark Bib graph as
// bench/dataset.go writes it: the graph's IRI triples, a plain name
// literal per node and an xsd:integer-typed year per paper. One
// language-tagged and one escaped literal follow. With shuffled set,
// the same lines come in a fixed random order.
func loadInput(tb testing.TB, shuffled bool) []byte {
	tb.Helper()
	const (
		bibP   = "http://gmark.bib/p/"
		xsdInt = "http://www.w3.org/2001/XMLSchema#integer"
	)
	g := gmark.Generate(gmark.Config{Nodes: 20000, Seed: 1})
	var nt bytes.Buffer
	if err := g.Snapshot.WriteNTriples(&nt); err != nil {
		tb.Fatal(err)
	}
	for t, nodes := range g.Nodes {
		for i, id := range nodes {
			iri := g.Snapshot.TermOf(id)
			fmt.Fprintf(&nt, "<%s> <%sname> \"%s %d\" .\n", iri, bibP, gmark.NodeType(t), i)
			if gmark.NodeType(t) == gmark.Paper {
				fmt.Fprintf(&nt, "<%s> <%syear> \"%d\"^^<%s> .\n", iri, bibP, 1960+i*60/len(nodes), xsdInt)
			}
		}
	}
	fmt.Fprintf(&nt, "<%s> <%slabel> \"Forschung\"@de .\n", g.Snapshot.TermOf(g.Nodes[gmark.University][0]), bibP)
	fmt.Fprintf(&nt, "<%s> <%snote> \"a \\\"quoted\\\" title,\\ttabbed \\u00E9\" .\n", g.Snapshot.TermOf(g.Nodes[gmark.Paper][0]), bibP)
	if !shuffled {
		return nt.Bytes()
	}
	lines := bytes.SplitAfter(nt.Bytes(), []byte("\n"))
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return bytes.Join(lines, nil)
}

// readInput loads nt into a fresh store.
func readInput(tb testing.TB, nt []byte) *rdf.Store {
	st := rdf.NewStore()
	if _, err := st.ReadNTriples(bytes.NewReader(nt)); err != nil {
		tb.Fatal(err)
	}
	return st
}

func BenchmarkLoad(b *testing.B) {
	nt := loadInput(b, false)
	read := func(nt []byte) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(nt)))
			for i := 0; i < b.N; i++ {
				readInput(b, nt)
			}
		}
	}
	b.Run("read", read(nt))
	b.Run("shuffled", read(loadInput(b, true)))
	b.Run("freeze", func(b *testing.B) {
		st := readInput(b, nt)
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
		loadSink = readInput(b, nt).Freeze()
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(loadSink.Len()), "B/triple")
	})
}

// TestLoadReadAllocs pins that reading BenchmarkLoad's input allocates
// per new term, not per line: the store's arena chunks, term table,
// index and triple array, and the scanner's buffer. A reader that
// allocates a string per line or per term makes over 100,000.
func TestLoadReadAllocs(t *testing.T) {
	nt := loadInput(t, false)
	allocs := testing.AllocsPerRun(1, func() { readInput(t, nt) })
	t.Logf("reading %d bytes: %.0f allocations", len(nt), allocs)
	if allocs >= 1000 {
		t.Errorf("reading BenchmarkLoad's input made %.0f allocations, want fewer than 1,000", allocs)
	}
}
