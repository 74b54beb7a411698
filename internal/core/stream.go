package core

import (
	"io"
	"iter"
	"sync"
)

// chunkSize is the number of raw entries handed to a worker at a time.
// Peak raw-entry memory is bounded by roughly (workers + channel buffer
// + 1) chunks.
const chunkSize = 4096

// StreamAnalyzer runs the AnalyzeLog pipeline over logs too large to
// materialize: it is the pull-mode driver of LiveAnalyzer. Entries are
// consumed in bounded chunks from an iterator or io.Reader and fanned
// out to a worker pool, pool worker w draining its chunks into the
// engine's slot w. The result is identical to AnalyzeLog over the same
// entries, for any pool size.
//
// Memory: at any moment only the in-flight chunks of raw entries are
// live (one per worker plus the small dispatch buffer), on top of the
// engine's dedup state (see LiveAnalyzer).
type StreamAnalyzer struct {
	// Opts configures the pipeline exactly as for AnalyzeLog.
	Opts Options
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// chunk is one bounded batch of raw entries; base is the global index of
// entries[0] in the stream, used to keep dedup deterministic.
type chunk struct {
	base    uint64
	entries []string
}

// AnalyzeReader streams the log from r in the given format and analyzes
// it. The error is the reader's, if any; analysis itself cannot fail.
func (sa *StreamAnalyzer) AnalyzeReader(name string, r io.Reader, format LogFormat) (*DatasetReport, error) {
	sc := NewEntryScanner(r, format)
	rep := sa.AnalyzeSeq(name, func(yield func(string) bool) {
		for sc.Scan() {
			if !yield(sc.Entry()) {
				return
			}
		}
	})
	return rep, sc.Err()
}

// AnalyzeSeq analyzes the entries produced by seq. The sequence is
// consumed exactly once and is never materialized.
func (sa *StreamAnalyzer) AnalyzeSeq(name string, seq iter.Seq[string]) *DatasetReport {
	la := NewLiveAnalyzer(name, sa.Opts, sa.Workers)

	// Dispatch bounded chunks to the pool. The small buffer keeps workers
	// fed without ever holding more than workers+buffer+1 chunks of raw
	// entries alive.
	chunks := make(chan chunk, 2)
	var wg sync.WaitGroup
	for w := range la.slots {
		// This goroutine is the only one touching slot w until wg.Wait
		// returns, so it skips the slot lock Add takes.
		slot := &la.slots[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				for i, raw := range c.entries {
					la.process(slot, &logEntry{raw: raw}, c.base+uint64(i))
				}
			}
		}()
	}
	var next uint64
	buf := make([]string, 0, chunkSize)
	for entry := range seq {
		buf = append(buf, entry)
		if len(buf) == chunkSize {
			chunks <- chunk{base: next, entries: buf}
			next += chunkSize
			buf = make([]string, 0, chunkSize)
		}
	}
	if len(buf) > 0 {
		chunks <- chunk{base: next, entries: buf}
	}
	close(chunks)
	wg.Wait()
	return la.Report()
}
