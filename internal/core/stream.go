package core

import (
	"bytes"
	"io"
	"iter"
	"sync"
)

// chunkSize is the most raw entries handed to a worker at a time.
const chunkSize = 4096

// chunkBytes is the most entry bytes a chunk holds, unless one entry
// alone is longer. Peak raw-entry memory is workers + 1 chunk buffers
// of chunkBytes, plus any oversized entries in flight. The buffers are
// live heap that the GC paces on: over the study corpus (2 workers on 2
// vCPUs), a smaller bound lowers peak RSS but costs CPU in more
// frequent GC cycles (64 KiB: 19 MB and 13% more CPU than 1 MiB), a
// larger one the reverse (4 MiB: 44 MB, 4% less). 1 MiB is about
// chunkSize entries of that corpus.
const chunkBytes = 1 << 20

// StreamAnalyzer runs the AnalyzeLog pipeline over logs too large to
// materialize: it is the pull-mode driver of LiveAnalyzer. Entries are
// copied back to back into byte-bounded chunk buffers from an iterator
// or io.Reader and fanned out to a worker pool, pool worker w draining
// its chunks into the engine's slot w. The result is identical to
// AnalyzeLog over the same entries, for any pool size.
//
// Memory: raw entries are live only in the chunk buffers. A pool of
// workers owns workers + 1 chunks, one per worker and one filling,
// which circulate between the reader and the workers; a chunk's buffer
// of chunkBytes is made when the reader first fills it, so a short log
// makes fewer. A buffer that one entry grew past chunkBytes is dropped
// after use, and made again at chunkBytes if its chunk is filled again.
// On top of that is the engine's dedup state (see LiveAnalyzer).
type StreamAnalyzer struct {
	// Opts configures the pipeline exactly as for AnalyzeLog.
	Opts Options
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// chunk is one bounded batch of raw entries, held back to back in buf:
// entry i ends at ends[i] and starts where entry i-1 ends (entry 0 at
// 0). base is the global index of entry 0 in the stream, used to keep
// dedup deterministic. One goroutine holds a chunk at a time: the
// reader while it fills it, then the worker that drains it and returns
// it to the free list. Nothing may keep a slice of buf past the drain;
// an entry kept is copied (LiveAnalyzer.claimBytes).
type chunk struct {
	base uint64
	buf  []byte
	ends []int
}

// intake is the reader's side of the pool: the chunk it is filling, the
// queue to the workers and the free list of chunks not in use, which
// holds every chunk of the pool at the start.
type intake struct {
	cur          *chunk
	next         uint64
	chunks, free chan *chunk
}

// newIntake returns the intake of a pool of workers: workers + 1
// chunks, without buffers yet.
func newIntake(workers int) *intake {
	n := workers + 1
	in := &intake{chunks: make(chan *chunk, n), free: make(chan *chunk, n)}
	for range n {
		in.free <- &chunk{}
	}
	return in
}

// room returns the chunk that the next entry, of at most n bytes, is to
// be appended to, first sending the current chunk if the entry would
// overfill it. While every chunk is in use it waits for a worker to
// return one.
func (in *intake) room(n int) *chunk {
	c := in.cur
	if c != nil && (len(c.ends) == chunkSize || len(c.buf) > 0 && len(c.buf)+n > chunkBytes) {
		in.send()
		c = nil
	}
	if c == nil {
		c = <-in.free
		if c.buf == nil {
			c.buf = make([]byte, 0, chunkBytes)
		}
		if c.ends == nil {
			c.ends = make([]int, 0, chunkSize)
		}
		c.base = in.next
		in.cur = c
	}
	return c
}

// send queues the current chunk for the workers.
func (in *intake) send() {
	in.next += uint64(len(in.cur.ends))
	in.chunks <- in.cur
	in.cur = nil
}

// recycle returns a drained chunk to the free list, emptied. A buffer
// that an oversized entry grew past chunkBytes is dropped.
func (in *intake) recycle(c *chunk) {
	if cap(c.buf) > chunkBytes {
		c.buf = nil
	}
	c.buf, c.ends = c.buf[:0], c.ends[:0]
	in.free <- c
}

// AnalyzeReader streams the log from r in the given format and analyzes
// it. The error is the reader's, if any; analysis itself cannot fail.
// Each line is trimmed and decoded straight into a chunk buffer, so
// what ReadLog would return is never materialized.
func (sa *StreamAnalyzer) AnalyzeReader(name string, r io.Reader, format LogFormat) (*DatasetReport, error) {
	sc := newLineScanner(r)
	rep := sa.analyze(name, func(in *intake) {
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			c := in.room(len(line))
			c.buf = appendEntry(c.buf, line, format)
			c.ends = append(c.ends, len(c.buf))
		}
	})
	return rep, sc.Err()
}

// AnalyzeSeq analyzes the entries produced by seq. The sequence is
// consumed exactly once and is never materialized.
func (sa *StreamAnalyzer) AnalyzeSeq(name string, seq iter.Seq[string]) *DatasetReport {
	return sa.analyze(name, func(in *intake) {
		for entry := range seq {
			c := in.room(len(entry))
			c.buf = append(c.buf, entry...)
			c.ends = append(c.ends, len(c.buf))
		}
	})
}

// analyze runs the worker pool over the chunks fill appends to.
func (sa *StreamAnalyzer) analyze(name string, fill func(*intake)) *DatasetReport {
	la := NewLiveAnalyzer(name, sa.Opts, sa.Workers)
	in := newIntake(len(la.slots))
	var wg sync.WaitGroup
	for w := range la.slots {
		// This goroutine is the only one touching slot w until wg.Wait
		// returns, so it skips the slot lock Add takes.
		slot := &la.slots[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range in.chunks {
				start := 0
				for i, end := range c.ends {
					e := la.claimBytes(c.buf[start:end])
					la.process(slot, &e, c.base+uint64(i))
					start = end
				}
				in.recycle(c)
			}
		}()
	}
	fill(in)
	if in.cur != nil {
		in.send()
	}
	close(in.chunks)
	wg.Wait()
	return la.Report()
}
