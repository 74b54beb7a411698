package core

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"sparqlog/internal/analysis"
	"sparqlog/internal/lint"
	"sparqlog/internal/sparql"
)

// dedupShards is the number of lock-striped dedup shards. More shards
// means less contention between workers landing on distinct entries.
const dedupShards = 64

// LiveAnalyzer is the concurrent form of AnalyzeLog, and the only one:
// N worker slots each own a private partial DatasetReport and parser,
// the dedup state is shared across slots in lock-striped shards (hash
// of the dedup key picks the shard), and Report merges the partials.
// Every entry carries its position in the log, which keeps structural
// dedup's earliest-representative rule deterministic whichever slot
// reaches a class first. Over the same entries the report is identical
// to AnalyzeLog's.
//
// Two drivers feed it. Add is the push side: entries arrive one at a
// time over the lifetime of a process, spread across slots round-robin
// by a global counter that doubles as the entry's log position, and
// Report can be asked for the statistics-so-far at any moment.
// AddRequest is Add for a serving endpoint, which needs each request's
// query parsed and linted to answer it: the exact-dedup table that
// counts a repeat also hands it the parse of its text's earlier
// sighting. StreamAnalyzer is the pull side: it drains one finite
// stream in chunks, pool worker w into slot w. Add, AddRequest and
// Report are safe for arbitrary concurrency.
//
// Memory: exact dedup keys its table on a 128-bit hash of each distinct
// valid entry's text (textKey), so an entry costs its key and its
// repeat label, not its text; unparseable entries keep no state and are
// re-parsed on repetition. Texts AddRequest has seen twice also keep a
// prepared Request, under preparedBudget. In StructuralDedup mode the
// shards instead retain one parsed representative per fingerprint
// class; with KeepDuplicates nothing at all.
type LiveAnalyzer struct {
	opts   Options
	name   string
	shards []dedupShard
	slots  []liveSlot
	ctr    atomic.Uint64
	// keyOf is the exact-dedup key of an entry text, hashed under this
	// analyzer's two seeds (tests inject collisions through it).
	keyOf func(string) textKey
}

// liveSlot is one worker's private state. The lock serializes pushed
// entries landing on the same slot and lets Report read the partial;
// a pull-mode worker owns its slot outright and never takes it.
// Padding between slots is not worth the complexity at typical slot
// counts.
type liveSlot struct {
	mu     sync.Mutex
	rep    *DatasetReport
	parser *sparql.Parser
	// repeats counts the entries served a prepared Request.
	repeats uint64
}

// dedupShard is one lock-striped slice of the global seen-set.
type dedupShard struct {
	mu sync.Mutex
	// seen is keyed by the hash of the raw entry text (exact dedup).
	seen map[textKey]seenEntry
	// prepared is the bytes charged to this shard's prepared requests
	// (at most preparedBudget/dedupShards).
	prepared int
	// reps is keyed by fingerprint (structural dedup).
	reps map[string]classRep
}

// textKey is the exact-dedup key of an entry text: two independently
// seeded 64-bit hashes of it. With n distinct texts in one table, the
// chance that any two share a key is at most n²/2¹²⁹ (below 10⁻²¹ for
// n = 10⁹). A collision counts the later text in the study as a valid
// repeat of the earlier one, and does nothing else: a prepared Request
// is served only to a request of equal text.
type textKey [2]uint64

// seenEntry is the recorded state of one distinct entry text in exact
// dedup. While label is empty a slot has claimed the entry and is
// still parsing it; once set, label is the repeat-shape label of the
// parsed query, so duplicate occurrences can be counted into the
// repeat-rate table without re-parsing. (Unparseable entries keep no
// state: their key is deleted again, so duplicates of them simply
// re-parse and re-fail.) prep is the text's prepared Request, taken
// from AddRequest on the text's second sighting.
type seenEntry struct {
	label string
	prep  *Request
}

// Request is one served query as AddRequest hands it back: the parse
// of its text, the lint result (with the query's Scope) and the
// canonical text. A prepared Request is shared by every repeat of its
// text, concurrently, so nobody may mutate it or what it points to.
type Request struct {
	Query *sparql.Query
	Lint  *lint.Result
	// Canon is sparql.QueryString(Query), which the serving endpoint
	// keys its result cache on.
	Canon string
	// text is the request's query text, which a prepared Request is
	// compared against before it serves a repeat.
	text string
}

// preparedBudget bounds the bytes that prepared Requests may hold, as
// preparedCost charges them: about 5,500 texts of the loggen corpus,
// whose prepared Requests hold 3.0 KB of heap each on average. Past it,
// texts are still counted but no longer prepared.
const preparedBudget = 16 << 20

// preparedCost is what r is charged against preparedBudget: the heap
// its parse, lint result, canonical text and text copy hold, as a
// straight-line fit to what they measure over the distinct loggen
// corpus texts (1.9 KB at 150 text bytes, 4.7 KB at 530;
// TestPreparedCostTracksHeap).
func preparedCost(r *Request) int { return 768 + 7*len(r.text) }

// classRep is the current representative of one fingerprint class:
// the parsed query of the earliest occurrence seen so far, plus its
// scan and repeat-shape label (the label is identical across the
// class; both are kept so report time never re-walks the AST).
type classRep struct {
	idx   uint64
	q     *sparql.Query
	f     analysis.Features
	label string
}

// NewLiveAnalyzer returns an empty analyzer. workers is the number of
// slots (<= 0 means GOMAXPROCS); opts configures the pipeline exactly
// as for AnalyzeLog.
func NewLiveAnalyzer(name string, opts Options, workers int) *LiveAnalyzer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seeds := [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}
	la := &LiveAnalyzer{
		opts:   opts,
		name:   name,
		shards: make([]dedupShard, dedupShards),
		slots:  make([]liveSlot, workers),
		keyOf: func(s string) textKey {
			return textKey{maphash.String(seeds[0], s), maphash.String(seeds[1], s)}
		},
	}
	for i := range la.shards {
		switch {
		case opts.KeepDuplicates:
			// Every occurrence is analyzed; no dedup state at all.
		case opts.StructuralDedup:
			la.shards[i].reps = make(map[string]classRep)
		default:
			la.shards[i].seen = make(map[textKey]seenEntry)
		}
	}
	for i := range la.slots {
		la.slots[i].rep = NewCorpusReport(name)
		la.slots[i].parser = &sparql.Parser{}
	}
	return la
}

// logEntry is one entry on its way through process: its text and, from
// AddRequest, the outcome of its parse (one of q and err is set) and,
// when it parsed, the Request built from it, which the exact-dedup table
// may keep for the text's repeats. Left unparsed, process parses it
// with the slot's parser if, and only when, the dedup state needs the
// parse.
type logEntry struct {
	raw string
	q   *sparql.Query
	err error
	req *Request
}

// lint is the entry's lint result when AddRequest linted it, else nil.
func (e *logEntry) lint() *lint.Result {
	if e.req == nil {
		return nil
	}
	return e.req.Lint
}

func (e *logEntry) parse(p *sparql.Parser) (*sparql.Query, error) {
	if e.q == nil && e.err == nil {
		e.q, e.err = p.Parse(e.raw)
	}
	return e.q, e.err
}

// Add feeds one raw log entry (the decoded query text of one request)
// through cleaning, dedup, parsing, and analysis. Concurrent Adds
// spread across the slots; two Adds contend only when they land on the
// same slot or dedup shard.
func (la *LiveAnalyzer) Add(raw string) {
	la.add(&logEntry{raw: raw})
}

// AddRequest is Add for a serving endpoint, which must parse and lint
// a request's query before it can answer it: it counts raw exactly as
// Add(raw) does and returns the outcome of parsing raw, the Request or
// the parse error. In exact-dedup mode a text's second sighting leaves
// its Request in the dedup table (while preparedBudget lasts), and
// every later repeat is handed that Request after one lookup, with no
// parse, lint or canonicalization; other texts are parsed and linted
// here, outside every lock. The Request is shared and must not be
// mutated.
func (la *LiveAnalyzer) AddRequest(raw string) (*Request, error) {
	if la.shards[0].seen != nil {
		key := la.keyOf(raw)
		shard := la.shard(key)
		shard.mu.Lock()
		st := shard.seen[key]
		shard.mu.Unlock()
		if r := st.prep; r != nil && r.text == raw {
			la.addRepeat(st.label)
			return r, nil
		}
	}
	q, err := sparql.Parse(raw)
	e := &logEntry{raw: raw, q: q, err: err}
	if err == nil {
		e.req = &Request{Query: q, Lint: lint.Run(q), Canon: sparql.QueryString(q), text: raw}
	}
	la.add(e)
	return e.req, err
}

// addRepeat counts a repeat of a prepared text: a valid duplicate of
// the repeat shape label, as process counts one.
func (la *LiveAnalyzer) addRepeat(label string) {
	idx := la.ctr.Add(1) - 1
	s := &la.slots[idx%uint64(len(la.slots))]
	s.mu.Lock()
	s.rep.Total++
	s.rep.Valid++
	s.rep.noteShape(label, false)
	s.repeats++
	s.mu.Unlock()
}

func (la *LiveAnalyzer) add(e *logEntry) {
	idx := la.ctr.Add(1) - 1
	slot := &la.slots[idx%uint64(len(la.slots))]
	slot.mu.Lock()
	la.process(slot, e, idx)
	slot.mu.Unlock()
}

// Entries returns the number of entries added so far.
func (la *LiveAnalyzer) Entries() uint64 { return la.ctr.Load() }

// Prepared returns how many entries AddRequest has served a prepared
// Request so far, and the bytes the prepared Requests are charged
// (preparedCost; at most preparedBudget).
func (la *LiveAnalyzer) Prepared() (served uint64, bytes int) {
	for i := range la.slots {
		s := &la.slots[i]
		s.mu.Lock()
		served += s.repeats
		s.mu.Unlock()
	}
	for i := range la.shards {
		sh := &la.shards[i]
		sh.mu.Lock()
		bytes += sh.prepared
		sh.mu.Unlock()
	}
	return served, bytes
}

// Report merges the current partial state into a fresh DatasetReport —
// the same statistics AnalyzeLog would produce over the entries
// processed so far (for StructuralDedup, over the representatives as
// currently elected). The live state is untouched; Add keeps
// accumulating. Add is blocked only for the merge and a copy of the
// representative list: the per-class analysis, which is O(classes ×
// shape analysis), runs after the locks are released.
func (la *LiveAnalyzer) Report() *DatasetReport {
	// Quiesce: entry processing only runs under a slot lock, so holding
	// every slot lock stops mutation of partials and shards alike (the
	// slot locks also order us after each worker's shard writes).
	for i := range la.slots {
		la.slots[i].mu.Lock()
	}
	rep := NewCorpusReport(la.name)
	for i := range la.slots {
		rep.Merge(la.slots[i].rep)
	}
	// Only structural dedup keeps representatives; the other modes'
	// reps maps are nil.
	var reps []classRep
	for i := range la.shards {
		for _, r := range la.shards[i].reps {
			reps = append(reps, r)
		}
	}
	for i := range la.slots {
		la.slots[i].mu.Unlock()
	}
	// Deferred representative analysis, non-destructively per report:
	// the shards keep their state for the next snapshot. A stored query
	// is never mutated (a better representative replaces the map entry),
	// so reading it here needs no lock.
	for _, r := range reps {
		rep.Unique++
		rep.noteShapeUnique(r.label)
		rep.analyzeQuery(r.q, &r.f, nil, la.opts)
	}
	return rep
}

// process runs one entry through cleaning, dedup, parsing, and
// analysis into slot s, mirroring the per-entry body of AnalyzeLog. idx
// is the entry's global position in the log. The caller must own s.
func (la *LiveAnalyzer) process(s *liveSlot, e *logEntry, idx uint64) {
	raw := e.raw
	var key textKey
	if la.shards[0].seen != nil {
		// Exact dedup: the key is hashed once, here.
		key = la.keyOf(raw)
		if la.countRepeat(s, key, e) {
			return
		}
	}
	if !looksLikeQuery(raw) {
		s.rep.NoiseRemoved++
		return
	}
	s.rep.Total++
	switch {
	case la.opts.KeepDuplicates:
		// The appendix corpus analyzes every duplicate: no dedup state.
		q, err := e.parse(s.parser)
		if err != nil {
			return
		}
		s.rep.Valid++
		s.rep.Unique++
		f := analysis.Scan(q)
		s.rep.noteShape(RepeatShape(q, &f), true)
		s.rep.analyzeQuery(q, &f, e.lint(), la.opts)
	case la.opts.StructuralDedup:
		// Structural dedup keys on the fingerprint, which needs the parse
		// anyway; every occurrence is parsed and counted Valid. Analysis
		// is deferred to Report: each shard tracks the earliest
		// occurrence of each class, because fingerprint-equal queries
		// need not analyze identically (fingerprinting expands prefixes;
		// the shape analyses see the original terms), and AnalyzeLog
		// analyzes the class's first occurrence in log order.
		q, err := e.parse(s.parser)
		if err != nil {
			return
		}
		s.rep.Valid++
		f := analysis.Scan(q)
		label := RepeatShape(q, &f)
		s.rep.noteShape(label, false)
		var fp string
		if e.req != nil {
			fp = e.req.Canon
		} else {
			fp = sparql.QueryString(q)
		}
		shard := la.shard(la.keyOf(fp))
		shard.mu.Lock()
		if cur, ok := shard.reps[fp]; !ok || idx < cur.idx {
			shard.reps[fp] = classRep{idx: idx, q: q, f: f, label: label}
		}
		shard.mu.Unlock()
	default:
		// Exact-text dedup: the first slot to claim an entry parses and
		// analyzes it; later occurrences reuse the recorded validity, so
		// each distinct entry is parsed once (twice in the rare race where
		// a duplicate arrives mid-parse — identical text parses
		// identically, so the result is unchanged). Repeats of a text
		// whose label is recorded were counted by countRepeat.
		shard := la.shard(key)
		shard.mu.Lock()
		st, dup := shard.seen[key]
		if !dup {
			shard.seen[key] = seenEntry{}
		} else if st.label != "" && st.prep == nil && e.req != nil {
			// The text's second sighting on the serving path: its
			// Request answers the repeats to come, while the budget
			// lasts.
			if c := preparedCost(e.req); shard.prepared+c <= preparedBudget/dedupShards {
				shard.prepared += c
				st.prep = e.req
				shard.seen[key] = st
			}
		}
		shard.mu.Unlock()
		if dup {
			label := st.label
			if label == "" {
				// The claimer is still parsing; parse our identical copy
				// to learn validity (and the repeat label) without
				// waiting on it.
				q, err := e.parse(s.parser)
				if err != nil {
					return
				}
				f := analysis.Scan(q)
				label = RepeatShape(q, &f)
			}
			s.rep.Valid++
			s.rep.noteShape(label, false)
			return
		}
		q, err := e.parse(s.parser)
		var f analysis.Features
		var label string
		if err == nil {
			f = analysis.Scan(q)
			label = RepeatShape(q, &f)
		}
		shard.mu.Lock()
		if err != nil {
			// Keep no state for unparseable entries, mirroring
			// AnalyzeLog: duplicates of them re-parse (and re-fail)
			// instead of inflating the shards with invalid noise.
			delete(shard.seen, key)
		} else {
			shard.seen[key] = seenEntry{label: label}
		}
		shard.mu.Unlock()
		if err != nil {
			return
		}
		s.rep.Valid++
		s.rep.Unique++
		s.rep.noteShape(label, true)
		s.rep.analyzeQuery(q, &f, e.lint(), la.opts)
	}
}

// countRepeat counts e into s as a valid repeat, and reports true, when
// e's text (hashed to key) is in the exact-dedup table with its label
// recorded and e brings no Request for the entry to keep (on the
// serving path, a text's entry lacking a prepared Request takes the
// next one). Such a text passed the noise scan when it was first seen,
// so a repeat skips the scan along with the parse.
func (la *LiveAnalyzer) countRepeat(s *liveSlot, key textKey, e *logEntry) bool {
	shard := la.shard(key)
	shard.mu.Lock()
	st := shard.seen[key]
	shard.mu.Unlock()
	if st.label == "" || st.prep == nil && e.req != nil {
		return false
	}
	s.rep.Total++
	s.rep.Valid++
	s.rep.noteShape(st.label, false)
	return true
}

func (la *LiveAnalyzer) shard(key textKey) *dedupShard {
	return &la.shards[key[0]%uint64(len(la.shards))]
}
