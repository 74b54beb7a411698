// Package qcache is a memory-bounded, snapshot-keyed query result
// cache for the serving path. It converts the paper's central workload
// observation — real SPARQL logs are massively repetitive (our own
// sparqld self-analysis sees >52% exact repeats) — into a speedup:
// repeated queries skip the plan→exec pipeline entirely. Its one
// caller on the request path is internal/server, which looks a request
// up, executes on a miss and offers the clean answer back.
//
// Keys are opaque strings; the server's are canonical query
// fingerprints (sparql.QueryString, the SPARQL writer's canonical mode:
// variable renaming and prefix expansion normalized away as each term
// is written, solution modifiers included) behind the row budget, so alpha-equivalent repeats share one entry. The cache is
// bound to one immutable rdf.Snapshot at construction; Get and Put
// compare snapshot identity on every access, so a new snapshot
// invalidates implicitly — no epoch bookkeeping on the hot path.
//
// An entry is the executor's answer itself (exec.Answer: one rdf.ID
// column per projected variable plus an overflow table for terms the
// dictionary does not hold). A fill retains the pointer the evaluator
// produced and a hit returns it: nothing is converted or copied on
// the way in or out, and a hit that is answered from a stored body
// (or a 304) never reads a cell. Concurrent misses of one key each
// execute; the first fill to be admitted is the entry. Admission
// takes two tests. A cost floor: only results whose measured
// execution reaches Options.MinCost are considered, so the cache
// holds the heavy tail rather than microsecond point lookups. A
// second sighting: a key's first such result only leaves its
// fingerprint in a fixed per-shard doorkeeper table, and the next
// result under that key is stored. The paper's streaks are chains of
// modified queries, each new text an exact-text cache never hits on,
// so a one-off answer is not retained (and its body is never copied).
// Eviction is sharded LRU under a byte budget. Hot entries
// additionally carry per-content-type serialized response bodies
// (SetBody/Body) so an HTTP hit can be a single Write.
//
// Invariant: cache entries are immutable and shared, keyed by snapshot
// identity. A hit hands out the entry's own columns (and Body the
// entry's own bytes): nobody may write through them.
package qcache

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"sparqlog/internal/exec"
	"sparqlog/internal/rdf"
)

// Defaults for Options zero values.
const (
	// DefaultMaxBytes is the byte budget across all shards.
	DefaultMaxBytes = 64 << 20
	// DefaultMinCost is the admission threshold: results measured
	// cheaper than this are not worth a cache slot (the 1µs point
	// lookups the paper's repeat statistics are full of re-execute
	// faster than they'd be found).
	DefaultMinCost = 500 * time.Microsecond
	// DefaultShards is the lock-stripe count.
	DefaultShards = 16
	// doorSlots is each shard's doorkeeper size in key fingerprints:
	// 32 KiB a shard, 512 KiB at DefaultShards.
	doorSlots = 4096
)

// Options configures New. The zero value serves with the defaults
// above; negative MinCost admits every successful result on its first
// fill (tests, replay experiments).
type Options struct {
	// MaxBytes is the cache-wide byte budget over entries and their
	// serialized bodies; <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// MinCost is the admission cost floor: only results whose measured
	// execution took at least this long are stored, and only on their
	// key's second sighting. 0 means DefaultMinCost; negative admits
	// every result on its first fill, with no floor and no doorkeeper.
	MinCost time.Duration
	// Shards is the lock-stripe count; <= 0 means DefaultShards.
	Shards int
	// MaxEntryBytes caps one entry (rows plus bodies); <= 0 means
	// MaxBytes/8. Results larger than this are never admitted: one
	// huge answer must not evict the whole working set.
	MaxEntryBytes int64
}

// Result is what the cache exchanges with its callers. The evaluator
// fills and receives Answer, the executor's columnar answer, which the
// cache retains and hands out as is. A caller that holds string rows
// instead (aligned with Vars, "" marking unbound) may Put them with
// Answer nil: they are admitted through exec.NewAnswer. Get sets Vars,
// Bool and Answer and never Rows; Answer.Rows materializes them.
type Result struct {
	Vars   []string
	Rows   [][]string
	Bool   bool
	Answer *exec.Answer
}

// cachedBody is one serialized response representation of an entry.
type cachedBody struct {
	data []byte
	etag string
}

// entry is one cached answer. Immutable after insert except for the
// bodies map and LRU links, both guarded by the shard lock.
type entry struct {
	key   string
	ans   *exec.Answer
	cost  time.Duration
	bytes int64

	bodies     map[string]cachedBody
	prev, next *entry
}

// shard is one lock stripe: a map plus an intrusive LRU list under a
// private byte budget, and the doorkeeper of keys offered once.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // eviction candidate
	bytes   int64
	max     int64
	seen    [doorSlots]uint64
}

// Cache is the result cache. Safe for concurrent use; create with New.
type Cache struct {
	sn       *rdf.Snapshot
	minCost  time.Duration
	maxEntry int64
	shards   []shard

	hits      atomic.Int64
	misses    atomic.Int64
	bodyHits  atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
	sightings atomic.Int64
}

// New returns a cache bound to sn.
func New(sn *rdf.Snapshot, opts Options) *Cache {
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	nShards := opts.Shards
	if nShards <= 0 {
		nShards = DefaultShards
	}
	minCost := opts.MinCost
	if minCost == 0 {
		minCost = DefaultMinCost
	}
	maxEntry := opts.MaxEntryBytes
	if maxEntry <= 0 {
		maxEntry = maxBytes / 8
	}
	c := &Cache{
		sn:       sn,
		minCost:  minCost,
		maxEntry: maxEntry,
		shards:   make([]shard, nShards),
	}
	perShard := maxBytes / int64(nShards)
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
		c.shards[i].max = perShard
	}
	return c
}

// MinCost returns the effective admission threshold.
func (c *Cache) MinCost() time.Duration { return c.minCost }

// shard picks the key's lock stripe by FNV-1a over the string in place
// (a request makes several cache calls, and none of them should copy
// the canonical query text to hash it). The hash is returned too: it is
// the key's doorkeeper fingerprint, and its bits above the stripe
// choice pick the fingerprint's slot.
func (c *Cache) shard(key string) (*shard, uint64) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &c.shards[h%uint64(len(c.shards))], h
}

// Get returns the answer under key, if cached. sn must be the snapshot
// the caller evaluates against: a mismatch is a miss by definition
// (stored IDs index a different dictionary). The answer is the entry's
// own, shared with every other holder: read-only.
func (c *Cache) Get(sn *rdf.Snapshot, key string) (Result, bool) {
	if sn != c.sn {
		c.misses.Add(1)
		return Result{}, false
	}
	sh, _ := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.touch(e)
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Result{}, false
	}
	c.hits.Add(1)
	return Result{Vars: e.ans.Vars, Bool: e.ans.Bool, Answer: e.ans}, true
}

// Put stores a successful result under key when it clears admission:
// the cost floor, the entry cap, then the doorkeeper. A result past
// the first two whose key the doorkeeper has not seen leaves the
// key's fingerprint, counts a first sighting and is not stored; the
// next one is. A shared fingerprint admits a key one sighting early
// and an overwritten one delays it by one: the verdict costs memory
// or a miss, never an answer. Put reports whether the entry is now
// resident (an existing entry under the same key also counts: of two
// concurrent misses that both fill, the first writer's answer stays).
// A result carrying its Answer is retained as it is, with no cell
// read; one carrying only rows is converted first. Callers must never
// Put errors, truncations, or recovered results — the cache cannot
// tell.
func (c *Cache) Put(sn *rdf.Snapshot, key string, r Result, cost time.Duration) bool {
	if sn != c.sn {
		return false
	}
	if cost < c.minCost {
		c.rejected.Add(1)
		return false
	}
	ans := r.Answer
	if ans == nil {
		ans = exec.NewAnswer(sn, r.Vars, r.Rows, r.Bool)
	}
	const entryOverhead = 256
	e := &entry{key: key, ans: ans, cost: cost, bytes: entryOverhead + int64(len(key)) + ans.Bytes()}
	if e.bytes > c.maxEntry {
		c.rejected.Add(1)
		return false
	}
	sh, h := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return true
	}
	if c.minCost >= 0 {
		if slot := &sh.seen[h/uint64(len(c.shards))%doorSlots]; *slot != h {
			*slot = h
			c.sightings.Add(1)
			return false
		}
	}
	if !sh.makeRoom(e.bytes, nil, c) {
		c.rejected.Add(1)
		return false
	}
	sh.entries[key] = e
	sh.bytes += e.bytes
	sh.pushFront(e)
	return true
}

// makeRoom evicts from the shard's LRU tail until add fits the budget,
// never evicting pin (the entry being grown). Returns false if add can
// never fit. Caller holds sh.mu.
func (sh *shard) makeRoom(add int64, pin *entry, c *Cache) bool {
	if add > sh.max {
		return false
	}
	//ctxpoll:ignore bounded: each iteration evicts one entry, at most the shard's entry count
	for sh.bytes+add > sh.max && sh.tail != nil && sh.tail != pin {
		ev := sh.tail
		sh.unlink(ev)
		delete(sh.entries, ev.key)
		sh.bytes -= ev.bytes
		c.evictions.Add(1)
	}
	return sh.bytes+add <= sh.max
}

// SetBody attaches one serialized response body (per content type) to
// a resident entry, computing its entity tag. Returns the tag and
// whether the body was stored: false when the entry is gone (evicted
// between execution and serialization) or the body would blow the
// entry cap. Bodies count against the shard budget like row data.
func (c *Cache) SetBody(key, contentType string, body []byte) (string, bool) {
	sh, _ := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return "", false
	}
	if _, ok := e.bodies[contentType]; ok {
		return e.bodies[contentType].etag, true
	}
	add := int64(len(body)) + int64(len(contentType)) + 64
	if e.bytes+add > c.maxEntry {
		return "", false
	}
	// Evict colder entries to fit the grown entry; pin e at the front
	// first so makeRoom cannot evict it.
	sh.touch(e)
	sh.bytes -= e.bytes
	if !sh.makeRoom(e.bytes+add, e, c) {
		sh.bytes += e.bytes
		return "", false
	}
	if e.bodies == nil {
		e.bodies = make(map[string]cachedBody)
	}
	data, etag := copyWithETag(body)
	e.bodies[contentType] = cachedBody{data: data, etag: etag}
	e.bytes += add
	sh.bytes += e.bytes
	return e.bodies[contentType].etag, true
}

// Body returns the cached serialized body and its entity tag for one
// content type, if present. The bytes are the entry's own: read-only.
func (c *Cache) Body(key, contentType string) ([]byte, string, bool) {
	sh, _ := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, "", false
	}
	b, ok := e.bodies[contentType]
	if !ok {
		return nil, "", false
	}
	sh.touch(e)
	c.bodyHits.Add(1)
	return b.data, b.etag, true
}

// copyWithETag makes the cache's own copy of a serialized body and
// derives its strong entity tag in the same pass: FNV-1a's xor-multiply
// taken over eight-byte words, each step folded down so a word's high
// bytes reach the low half. The tag depends only on the exact bytes, so
// equal bodies get equal tags across restarts.
func copyWithETag(body []byte) ([]byte, string) {
	const prime = 1099511628211
	data := make([]byte, len(body))
	h := uint64(14695981039346656037) ^ uint64(len(body))
	i := 0
	for ; i+8 <= len(body); i += 8 {
		w := binary.LittleEndian.Uint64(body[i:])
		binary.LittleEndian.PutUint64(data[i:], w)
		h = (h ^ w) * prime
		h ^= h >> 32
	}
	for ; i < len(body); i++ {
		data[i] = body[i]
		h = (h ^ uint64(body[i])) * prime
		h ^= h >> 32
	}
	var tag [18]byte
	tag[0], tag[17] = '"', '"'
	for k := 16; k >= 1; k-- {
		tag[k] = "0123456789abcdef"[h&15]
		h >>= 4
	}
	return data, string(tag[:])
}

// --- intrusive LRU list (shard lock held) ---

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) touch(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// --- counters ---

// Hits counts Get calls answered from the cache.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses counts Get calls that found nothing (snapshot mismatches
// included).
func (c *Cache) Misses() int64 { return c.misses.Load() }

// BodyHits counts serialized-body reuses (Body answered).
func (c *Cache) BodyHits() int64 { return c.bodyHits.Load() }

// Evictions counts entries dropped by the LRU byte budget.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Rejected counts Put calls refused by the cost floor, the entry cap
// or a shard budget the entry can never fit.
func (c *Cache) Rejected() int64 { return c.rejected.Load() }

// FirstSightings counts Put calls that cleared the cost floor and the
// entry cap but were not stored: their key's first sighting.
func (c *Cache) FirstSightings() int64 { return c.sightings.Load() }

// Bytes returns the current budgeted size across shards.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].bytes
		c.shards[i].mu.Unlock()
	}
	return n
}

// Entries returns the resident entry count.
func (c *Cache) Entries() int {
	var n int
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}
