package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
)

// Bib vocabulary. The node-type order is gmark's (Researcher, Paper,
// Journal, Conference, University).
const (
	bibP    = "http://gmark.bib/p/"
	bibNode = "http://gmark.bib/"
	xsdInt  = "http://www.w3.org/2001/XMLSchema#integer"
)

var nodeTypes = [...]string{"researcher", "paper", "journal", "conference", "university"}

const (
	tResearcher = iota
	tPaper
	tJournal
	tConference
	tUniversity
)

// Publication years span [yearLo, yearLo+yearSpan), rising with the
// paper index so that citations (which point to lower indexes) point
// back in time.
const (
	yearLo   = 1960
	yearSpan = 60
)

// vocab is all a request generator knows about the dataset: how many
// nodes of each type exist. Request streams are a function of
// (seed, vocab) only.
type vocab struct {
	counts [len(nodeTypes)]int
}

func nodeIRI(t, i int) string { return fmt.Sprintf("%s%s/%d", bibNode, nodeTypes[t], i) }

// writeDataset generates the gMark Bib graph for (nodes, seed), adds one
// bib:name literal per node and one bib:year literal per paper, and
// writes everything as N-Triples to path. It returns the vocabulary and
// the number of triples written.
func writeDataset(path string, nodes int, seed int64) (vocab, int, error) {
	g := gmark.Generate(gmark.Config{Nodes: nodes, Seed: seed})
	var v vocab
	for t := range v.counts {
		v.counts[t] = len(g.Nodes[t])
	}
	f, err := os.Create(path)
	if err != nil {
		return v, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	sn := g.Snapshot
	n := 0
	for _, t := range sn.Triples() {
		fmt.Fprintf(bw, "<%s> <%s> <%s> .\n", sn.TermOf(t.S), sn.TermOf(t.P), sn.TermOf(t.O))
		n++
	}
	for t, cnt := range v.counts {
		for i := 0; i < cnt; i++ {
			fmt.Fprintf(bw, "<%s> <%sname> \"%s %d\" .\n", nodeIRI(t, i), bibP, nodeTypes[t], i)
			n++
			if t == tPaper {
				fmt.Fprintf(bw, "<%s> <%syear> \"%d\"^^<%s> .\n", nodeIRI(t, i), bibP, yearLo+i*yearSpan/cnt, xsdInt)
				n++
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return v, 0, err
	}
	return v, n, f.Close()
}

// store is a loaded dataset with what loading it cost.
type store struct {
	sn           *rdf.Snapshot
	read, freeze time.Duration
	triples      int
	// heap is the growth of the live heap across the load, measured only
	// on request (it costs two garbage collections).
	heap uint64
}

// loadStore reads an N-Triples file the way cmd/sparqld does
// (ReadNTriples, then Freeze).
func loadStore(path string, measureHeap bool) (*store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var before runtime.MemStats
	if measureHeap {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	builder := rdf.NewStore()
	t0 := time.Now()
	n, err := builder.ReadNTriples(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	t1 := time.Now()
	st := &store{sn: builder.Freeze(), read: t1.Sub(t0), freeze: time.Since(t1), triples: n}
	builder = nil
	if measureHeap {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		st.heap = after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
	}
	return st, nil
}
