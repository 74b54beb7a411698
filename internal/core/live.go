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
// time over the lifetime of a process — a serving endpoint feeding each
// request's query through the paper's pipeline as it happens (as
// AddParsed, since it has parsed the request to answer it) — spread
// across slots round-robin by a global counter that doubles as the
// entry's log position, and Report can be asked for the
// statistics-so-far at any moment. StreamAnalyzer is the pull side: it
// drains one finite stream in chunks, pool worker w into slot w. Add,
// AddParsed and Report are safe for arbitrary concurrency.
//
// Memory: the shards retain one copy of each distinct valid entry's
// text — the floor any exact deduplication needs (unparseable entries
// keep no state and are re-parsed on repetition). In StructuralDedup
// mode they instead retain one parsed representative per fingerprint
// class; with KeepDuplicates nothing at all.
type LiveAnalyzer struct {
	opts   Options
	name   string
	seed   maphash.Seed
	shards []dedupShard
	slots  []liveSlot
	ctr    atomic.Uint64
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
}

// dedupShard is one lock-striped slice of the global seen-set.
type dedupShard struct {
	mu sync.Mutex
	// seen is keyed by raw entry text (exact dedup).
	seen map[string]seenEntry
	// reps is keyed by fingerprint (structural dedup).
	reps map[string]classRep
}

// seenEntry is the recorded state of one distinct entry text in exact
// dedup. While valid is false a slot has claimed the entry and is
// still parsing it; once true, label is the repeat-shape label of the
// parsed query, so duplicate occurrences can be counted into the
// repeat-rate table without re-parsing. (Unparseable entries keep no
// state: their key is deleted again, so duplicates of them simply
// re-parse and re-fail.)
type seenEntry struct {
	valid bool
	label string
}

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
	la := &LiveAnalyzer{
		opts:   opts,
		name:   name,
		seed:   maphash.MakeSeed(),
		shards: make([]dedupShard, dedupShards),
		slots:  make([]liveSlot, workers),
	}
	for i := range la.shards {
		switch {
		case opts.KeepDuplicates:
			// Every occurrence is analyzed; no dedup state at all.
		case opts.StructuralDedup:
			la.shards[i].reps = make(map[string]classRep)
		default:
			la.shards[i].seen = make(map[string]seenEntry)
		}
	}
	for i := range la.slots {
		la.slots[i].rep = NewCorpusReport(name)
		la.slots[i].parser = &sparql.Parser{}
	}
	return la
}

// logEntry is one entry on its way through process: its text and, when
// the caller parsed it already (AddParsed), the outcome of that parse
// (one of q and err is set) and the query's lint result. Left unparsed,
// process parses it with the slot's parser if, and only when, the dedup
// state needs the parse.
type logEntry struct {
	raw  string
	q    *sparql.Query
	err  error
	lint *lint.Result
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

// AddParsed is Add for a caller that has parsed the entry itself, as a
// serving endpoint must before it can answer: q and perr are what
// sparql.Parse returned for raw, and lr is lint.Run(q) if the caller
// has it (nil otherwise, and always when the parse failed). The entry
// is counted exactly as Add(raw) counts it, without a second parse or
// lint. The analyzer only reads q and may retain it (structural dedup
// keeps a class's representative), so the caller must not mutate it
// afterwards.
func (la *LiveAnalyzer) AddParsed(raw string, q *sparql.Query, perr error, lr *lint.Result) {
	la.add(&logEntry{raw: raw, q: q, err: perr, lint: lr})
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
		s.rep.analyzeQuery(q, &f, e.lint, la.opts)
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
		fp := sparql.QueryString(q)
		shard := la.shard(fp)
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
		// identically, so the result is unchanged).
		shard := la.shard(raw)
		shard.mu.Lock()
		st, dup := shard.seen[raw]
		if !dup {
			shard.seen[raw] = seenEntry{}
		}
		shard.mu.Unlock()
		if dup {
			label := st.label
			if !st.valid {
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
			delete(shard.seen, raw)
		} else {
			shard.seen[raw] = seenEntry{valid: true, label: label}
		}
		shard.mu.Unlock()
		if err != nil {
			return
		}
		s.rep.Valid++
		s.rep.Unique++
		s.rep.noteShape(label, true)
		s.rep.analyzeQuery(q, &f, e.lint, la.opts)
	}
}

func (la *LiveAnalyzer) shard(key string) *dedupShard {
	return &la.shards[maphash.String(la.seed, key)%uint64(len(la.shards))]
}
