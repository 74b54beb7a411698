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
// query parsed and linted to answer it. StreamAnalyzer is the pull
// side: it drains one finite stream in chunks, pool worker w into slot
// w. Add, AddRequest and Report are safe for arbitrary concurrency.
//
// In exact dedup an entry's claim hashes its text once and settles, in
// one shard-locked lookup, whether the text is a repeat, in flight or
// new; no entry takes more than two shard locks (see claim).
//
// Memory: exact dedup keys its table on a 128-bit hash of each distinct
// valid entry's text (textKey), so a distinct text costs one 24-byte
// slot holding its key and its repeat shape as a code (seenTable), not
// its text: 32 to 64 B of heap at the table's load, 36 to 52 B measured
// (TestDedupHeapPerText). Noise and unparseable entries keep no state
// and are parsed again on repetition. An entry is parsed before
// it is scanned for noise, and only a failed parse is scanned; an entry
// that begins with no keyword a query can start with is scanned
// unparsed (process). The stream claims an entry from its bytes, and a
// recorded text never becomes a string (claimBytes). Texts AddRequest
// has seen twice also keep a prepared Request, under preparedBudget.
// In StructuralDedup mode the shards instead retain one parsed
// representative per fingerprint class; with KeepDuplicates nothing at
// all.
type LiveAnalyzer struct {
	opts Options
	name string
	// exact is whether the analyzer dedups on exact text, in the shards'
	// seen tables.
	exact  bool
	shards []dedupShard
	slots  []liveSlot
	ctr    atomic.Uint64
	// seeds are the two hash seeds of this analyzer's textKeys.
	seeds [2]maphash.Seed
	// keyHook, when set, rewrites every textKey the analyzer computes:
	// tests count hashes and inject collisions through it.
	keyHook func(textKey) textKey
}

// liveSlot is one worker's private state. The lock serializes pushed
// entries landing on the same slot and lets Report read the partial;
// a pull-mode worker owns its slot outright and never takes it.
// Padding between slots is not worth the complexity at typical slot
// counts.
type liveSlot struct {
	mu  sync.Mutex
	rep *DatasetReport
	// parser's trees live until its next Parse, and analyzer's storage
	// until the next analysis: an entry's parse and analysis are done
	// before the slot takes the next.
	parser   *sparql.Parser
	analyzer analyzer
	// repeats counts the entries served a prepared Request.
	repeats uint64
}

// dedupShard is one lock-striped slice of the global seen-set.
type dedupShard struct {
	mu sync.Mutex
	// seen is keyed by the hash of the raw entry text (exact dedup).
	seen seenTable
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
// scan and repeat shape (the shape is identical across the class; both
// are kept so report time never re-walks the AST).
type classRep struct {
	idx   uint64
	q     *sparql.Query
	f     analysis.Features
	shape shapeCode
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
		exact:  !opts.KeepDuplicates && !opts.StructuralDedup,
		shards: make([]dedupShard, dedupShards),
		slots:  make([]liveSlot, workers),
		seeds:  [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
	}
	for i := range la.shards {
		switch {
		case opts.KeepDuplicates:
			// Every occurrence is analyzed; no dedup state at all.
		case opts.StructuralDedup:
			la.shards[i].reps = make(map[string]classRep)
		default:
			la.shards[i].seen = newSeenTable()
		}
	}
	for i := range la.slots {
		la.slots[i].rep = NewCorpusReport(name)
		la.slots[i].parser = &sparql.Parser{}
	}
	return la
}

// keyOf is the textKey of the text s.
func (la *LiveAnalyzer) keyOf(s string) textKey {
	return la.hooked(textKey{maphash.String(la.seeds[0], s), maphash.String(la.seeds[1], s)})
}

// keyOfBytes is keyOf of a text held as bytes: maphash hashes a string
// and its bytes alike, so a text has one key however it is held.
func (la *LiveAnalyzer) keyOfBytes(b []byte) textKey {
	return la.hooked(textKey{maphash.Bytes(la.seeds[0], b), maphash.Bytes(la.seeds[1], b)})
}

func (la *LiveAnalyzer) hooked(k textKey) textKey {
	if la.keyHook != nil {
		return la.keyHook(k)
	}
	return k
}

// claimState is what an entry's claim found for its text in the
// exact-dedup table: unclaimed (the analyzer does not dedup on exact
// text), claimedNew (the text was absent and the claim put its key in
// the table, for the entry to settle), inFlight (another entry holds
// the claim and has not settled it) or recorded (the text is valid and
// its repeat shape known: the entry is a repeat).
type claimState uint8

const (
	unclaimed claimState = iota
	claimedNew
	inFlight
	recorded
)

// logEntry is one entry on its way through process: its text, its
// claim on the exact-dedup table (the text's key, what the claim found,
// and for a recorded text its repeat shape and prepared Request, if it
// has one) and, from AddRequest, the outcome of its parse (one of q and
// err is set) and the Request AddRequest returns for it (for a repeat
// served prepared, the prepared one, and no parse). Left unparsed,
// process parses it with the slot's parser if, and only when, the claim
// needs the parse and the text may parse.
type logEntry struct {
	raw   string
	key   textKey
	state claimState
	shape shapeCode
	prep  *Request
	q     *sparql.Query
	err   error
	lr    *lint.Result // the parse's lint result when AddRequest linted it
	req   *Request
}

// parse returns e's query, nil if its text does not parse. A text
// that cannot begin a query (sparql.MayParse) never reaches the parser,
// which would fail on it at several times the cost of the noise scan.
func (e *logEntry) parse(p *sparql.Parser) *sparql.Query {
	if e.q == nil && e.err == nil && sparql.MayParse(e.raw) {
		e.q, e.err = p.Parse(e.raw)
	}
	return e.q
}

// claim returns raw's logEntry with its claim: in exact dedup, raw is
// hashed once and one shard-locked lookup finds it recorded, in flight
// or absent, putting an absent text's key in the table.
func (la *LiveAnalyzer) claim(raw string) logEntry {
	e := logEntry{raw: raw}
	if la.exact {
		la.lookup(&e, la.keyOf(raw))
	}
	return e
}

// claimBytes is claim of a text held in bytes that the caller reuses
// once process returns: a recorded text is counted from its key and
// never becomes a string; any other is copied once, and its parse
// slices the copy.
func (la *LiveAnalyzer) claimBytes(b []byte) logEntry {
	var e logEntry
	if la.exact {
		la.lookup(&e, la.keyOfBytes(b))
	}
	if e.state != recorded {
		e.raw = string(b)
	}
	return e
}

// lookup settles e's claim on key in one shard-locked lookup.
func (la *LiveAnalyzer) lookup(e *logEntry, key textKey) {
	e.key = key
	sh := la.shard(key)
	sh.mu.Lock()
	st, ok := sh.seen.claim(key)
	if ok && st.shape != 0 {
		e.prep = sh.seen.prepared(st)
	}
	sh.mu.Unlock()
	switch {
	case !ok:
		e.state = claimedNew
	case st.shape == 0:
		e.state = inFlight
	default:
		e.state, e.shape = recorded, st.shape
	}
}

// settle ends a claimedNew entry's claim: a valid text's repeat shape
// is recorded, and 0 releases the key of a noise or unparseable text,
// which keeps no state (as in AnalyzeLog, its duplicates fail again).
// Entries holding no new claim are left alone.
func (la *LiveAnalyzer) settle(e *logEntry, shape shapeCode) {
	if e.state != claimedNew {
		return
	}
	sh := la.shard(e.key)
	sh.mu.Lock()
	sh.seen.settle(e.key, shape)
	sh.mu.Unlock()
}

// admit keeps e's Request, from a served repeat of a recorded text, for
// the repeats to come, unless the text is prepared already or the
// shard's share of preparedBudget is spent.
func (la *LiveAnalyzer) admit(e *logEntry) {
	sh := la.shard(e.key)
	sh.mu.Lock()
	if c := preparedCost(e.req); sh.prepared+c <= preparedBudget/dedupShards && sh.seen.prepare(e.key, e.req) {
		sh.prepared += c
	}
	sh.mu.Unlock()
}

// Add feeds one raw log entry (the decoded query text of one request)
// through cleaning, dedup, parsing, and analysis. Concurrent Adds
// spread across the slots; two Adds contend only when they land on the
// same slot or dedup shard.
func (la *LiveAnalyzer) Add(raw string) {
	e := la.claim(raw)
	la.add(&e)
}

// AddRequest is Add for a serving endpoint, which must parse and lint
// a request's query before it can answer it: it counts raw exactly as
// Add(raw) does and returns the outcome of parsing raw, the Request or
// the parse error. It claims raw before it parses: in exact dedup, a
// recorded text whose entry holds a prepared Request of equal text is
// handed that Request, with no parse, lint or canonicalization. Other
// texts are parsed and linted here, outside every lock, and a text's
// second sighting leaves its Request in the dedup table (while
// preparedBudget lasts) for the repeats to come. The Request is shared
// and must not be mutated.
func (la *LiveAnalyzer) AddRequest(raw string) (*Request, error) {
	e := la.claim(raw)
	if r := e.prep; r != nil && r.text == raw {
		e.req = r
	} else if e.q, e.err = sparql.Parse(raw); e.err == nil {
		e.lr = lint.Run(e.q)
		e.req = &Request{Query: e.q, Lint: e.lr, Canon: sparql.QueryString(e.q), text: raw}
	}
	la.add(&e)
	return e.req, e.err
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
// currently elected; in exact dedup, a repeat whose first sighting is
// still being processed already counts as a repeat). The live state is
// untouched; Add keeps accumulating. Add is blocked only for the merge
// and a copy of the representative list: the per-class analysis, which
// is O(classes × shape analysis), runs after the locks are released.
func (la *LiveAnalyzer) Report() *DatasetReport {
	// Quiesce: entry processing only runs under a slot lock, so holding
	// every slot lock stops mutation of partials and representatives
	// (the slot locks also order us after each worker's shard writes).
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
	var a analyzer
	for _, r := range reps {
		rep.Unique++
		rep.noteShapeUnique(r.shape)
		rep.analyzeQuery(r.q, &r.f, nil, la.opts, &a)
	}
	rep.spellRepeats()
	return rep
}

// process runs one claimed entry through parsing, cleaning and analysis
// into slot s, with the counts of the per-entry body of AnalyzeLog in
// every dedup mode. AnalyzeLog scans for noise before it parses; the
// reverse order counts alike, since a text that parses is never noise
// (FuzzLooksLikeQuery). It saves the scan on each new valid text. Noise
// pays a test of its first bytes on top of the scan, and a failed parse
// only if it begins with a keyword a query can start with
// (sparql.MayParse). idx is the entry's global position in the log.
// The caller must own s.
func (la *LiveAnalyzer) process(s *liveSlot, e *logEntry, idx uint64) {
	// A recorded text parsed when it was first seen: it skips the parse
	// and the shape scan.
	shape := e.shape
	if e.state != recorded {
		q := e.parse(s.parser)
		if q == nil {
			// Only a text that does not parse is scanned for noise: one
			// that parses holds an ASCII query-form keyword, which the
			// scan would find (keywords are ASCII to the parser).
			if looksLikeQuery(e.raw) {
				s.rep.Total++
			} else {
				s.rep.NoiseRemoved++
			}
			la.settle(e, 0)
			return
		}
		// A linted parse was scanned by the linter (lint.Result.Features).
		var f analysis.Features
		if e.lr != nil {
			f = e.lr.Features
		} else {
			f = analysis.Scan(q)
		}
		shape = shapeOf(q, &f)
		switch {
		case la.opts.KeepDuplicates || e.state == claimedNew:
			// Any entry when duplicates are kept, or a new text in
			// exact dedup: analyzed here.
			la.settle(e, shape)
			s.rep.Total++
			s.rep.Valid++
			s.rep.Unique++
			s.rep.noteShape(shape, true)
			s.rep.analyzeQuery(q, &f, e.lr, la.opts, &s.analyzer)
			return
		case la.opts.StructuralDedup:
			// Analysis is deferred to Report: each shard tracks the
			// earliest occurrence of each fingerprint class, because
			// fingerprint-equal queries need not analyze identically
			// (fingerprinting expands prefixes; the shape analyses see
			// the original terms), and AnalyzeLog analyzes the class's
			// first occurrence in log order.
			var fp string
			if e.req != nil {
				fp = e.req.Canon
			} else {
				fp = sparql.QueryString(q)
			}
			sh := la.shard(la.keyOf(fp))
			sh.mu.Lock()
			if cur, ok := sh.reps[fp]; !ok || idx < cur.idx {
				if e.req == nil {
					// The slot's parser recycles q at its next parse, and
					// a representative outlives it: it is parsed again, on
					// a Parser of its own. (AddRequest's parse is one.)
					q, _ = sparql.Parse(e.raw)
				}
				sh.reps[fp] = classRep{idx: idx, q: q, f: f, shape: shape}
			}
			sh.mu.Unlock()
		}
	}
	// A repeat: of a recorded text, of a text whose first sighting is
	// in flight (whose identical copy was just parsed), or, in
	// structural dedup, any occurrence, the class's Unique being
	// counted at Report.
	s.rep.Total++
	s.rep.Valid++
	s.rep.noteShape(shape, false)
	// From AddRequest, a recorded text's repeat was served its prepared
	// Request or, finding none, offers its own; a colliding text finds
	// another text's, and answers from its own parse.
	if e.state == recorded && e.req != nil {
		if e.req == e.prep {
			s.repeats++
		} else if e.prep == nil {
			la.admit(e)
		}
	}
}

func (la *LiveAnalyzer) shard(key textKey) *dedupShard {
	return &la.shards[key[0]%uint64(len(la.shards))]
}
