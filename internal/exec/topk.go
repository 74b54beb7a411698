package exec

import (
	"math"
	"sort"

	"sparqlog/internal/value"
)

// This file is the columnar ORDER BY operator. It is a pipeline
// breaker: every input row is ingested (its sort keys computed exactly
// once), then rows are emitted in sorted order. When the consumer only
// needs the first K rows (ORDER BY + LIMIT with no DISTINCT in
// between), the operator runs bounded-heap selection instead of a full
// sort — O(n log k) comparisons and, more importantly for this engine,
// no dictionary text for rows that lose every comparison against the
// current top K. The heap requires the comparator to be a strict weak
// order, which the SPARQL ORDER BY comparator is not in general
// (mixed numeric/string keys compare numerically or lexically
// depending on the pair; error keys are skipped pairwise), so TopK
// watches the ingested keys and falls back to the exact legacy
// algorithm — sort.SliceStable with the same comparator — whenever a
// key position is heterogeneous. Both paths produce byte-identical
// output to the legacy string sorter for every input the fallback
// detector routes to them.

// SortKey is one ORDER BY key value for one row, evaluated once so
// comparisons never re-read the dictionary. Err marks a key whose
// expression failed to evaluate; the comparator skips such positions
// pairwise, exactly as the legacy sorter does.
type SortKey struct {
	Err bool
	V   value.Value
}

// topKInfo summarizes one TopK execution for explain output.
type topKInfo struct {
	// Mode is "heap" (bounded selection) or "sort" (full stable sort).
	Mode string
	// Scanned is the ingested row count, Kept the emitted row count.
	Scanned int64
	Kept    int64
}

// TopK sorts its input by caller-computed keys. keep bounds the output
// (pass offset+limit; -1 means sort everything); keyFn fills out[0:n]
// with row (b, row)'s keys; cmp is the full ORDER BY comparator over
// two key tuples, returning <0/0/>0.
type TopK struct {
	base
	in    Operator
	keep  int
	nkeys int
	keyFn func(b *Batch, row int, out []SortKey)
	cmp   func(a, b []SortKey) int

	built bool
	store *Batch    // owned copy of every input row
	keys  []SortKey // nkeys entries per stored row
	idx   []int     // emission order over store rows
	pos   int
	info  topKInfo
}

// NewTopK returns the ORDER BY operator. cmp must implement the exact
// comparator the legacy sorter used (per-key compare with pairwise
// error skip and DESC flips) — TopK guarantees output identical to
// stable-sorting the input with it.
func NewTopK(in Operator, keep, nkeys int, keyFn func(b *Batch, row int, out []SortKey), cmp func(a, b []SortKey) int) *TopK {
	return &TopK{
		base:  newBase(slotsOf(in)),
		in:    in,
		keep:  keep,
		nkeys: nkeys,
		keyFn: keyFn,
		cmp:   cmp,
		store: NewBatch(slotsOf(in)),
	}
}

// rowKeys returns stored row r's key tuple.
func (t *TopK) rowKeys(r int) []SortKey {
	return t.keys[r*t.nkeys : (r+1)*t.nkeys]
}

// after reports whether stored row a sorts strictly after stored row b
// in the final output — the key comparator with the ingest sequence as
// tiebreak, which makes it a total order (equal keys keep input order,
// i.e. stability).
func (t *TopK) after(a, b int) bool {
	if c := t.cmp(t.rowKeys(a), t.rowKeys(b)); c != 0 {
		return c > 0
	}
	return a > b
}

func (t *TopK) build(c *Ctx) error {
	// heapOK[k] tracks whether key position k stayed homogeneous:
	// one pairwise-comparable domain (all-numeric without NaN, or
	// all-string), no evaluation errors. Any violation forces the
	// stable-sort path, whose results don't depend on the comparator
	// being a strict weak order.
	heapOK := make([]bool, t.nkeys)
	sawNum := make([]bool, t.nkeys)
	sawStr := make([]bool, t.nkeys)
	for k := range heapOK {
		heapOK[k] = true
	}
	key := make([]SortKey, t.nkeys)
	for {
		b, err := t.in.Next(c)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for row := 0; row < b.Rows(); row++ {
			t.keyFn(b, row, key)
			for k, sk := range key {
				switch {
				case sk.Err:
					heapOK[k] = false
				case sk.V.IsNum():
					sawNum[k] = true
					if sawStr[k] || math.IsNaN(sk.V.Float()) {
						heapOK[k] = false
					}
				default:
					sawStr[k] = true
					if sawNum[k] {
						heapOK[k] = false
					}
				}
			}
			t.keys = append(t.keys, key...)
			t.store.AppendRow(b, row)
		}
	}
	n := t.store.Rows()
	t.info.Scanned = int64(n)
	homogeneous := true
	for _, ok := range heapOK {
		homogeneous = homogeneous && ok
	}
	if t.keep >= 0 && t.keep < n && homogeneous {
		t.info.Mode = "heap"
		t.idx = t.heapSelect(n)
	} else {
		t.info.Mode = "sort"
		t.idx = make([]int, n)
		for i := range t.idx {
			t.idx[i] = i
		}
		sort.SliceStable(t.idx, func(i, j int) bool {
			return t.cmp(t.rowKeys(t.idx[i]), t.rowKeys(t.idx[j])) < 0
		})
		if t.keep >= 0 && t.keep < n {
			t.idx = t.idx[:t.keep]
		}
	}
	t.info.Kept = int64(len(t.idx))
	t.built = true
	return nil
}

// heapSelect returns the first keep rows of the stable sort order via
// a bounded max-heap over after(): the root is the row that sorts
// latest among the current candidates, and a new row evicts it exactly
// when the new row sorts before it. Because after() is a total order
// here (homogeneous keys + sequence tiebreak), the surviving set and
// its heapsorted order match sort.SliceStable truncated to keep.
func (t *TopK) heapSelect(n int) []int {
	h := make([]int, 0, t.keep)
	for r := 0; r < n; r++ {
		if len(h) < t.keep {
			h = append(h, r)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !t.after(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			continue
		}
		if t.keep == 0 || !t.after(h[0], r) {
			continue
		}
		h[0] = r
		t.siftDown(h, 0, len(h))
	}
	// Heapsort in place: repeatedly move the latest-sorting row to the
	// end, leaving h in ascending output order.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		t.siftDown(h, 0, end)
	}
	return h
}

func (t *TopK) siftDown(h []int, i, n int) {
	//ctxpoll:ignore bounded heap walk: i strictly descends a log(n)-deep heap
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && t.after(h[r], h[l]) {
			big = r
		}
		if !t.after(h[big], h[i]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (t *TopK) Next(c *Ctx) (*Batch, error) {
	if !t.built {
		if err := t.build(c); err != nil {
			return nil, err
		}
	}
	if t.pos >= len(t.idx) {
		return nil, nil
	}
	t.out.Reset()
	//ctxpoll:ignore bounded emission: pos strictly advances over the selected index list
	for t.pos < len(t.idx) && !t.out.Full() {
		t.out.AppendRow(t.store, t.idx[t.pos])
		t.pos++
	}
	return t.emit(), nil
}

func (t *TopK) Reset() {
	t.in.Reset()
	t.store = NewBatch(t.store.Slots())
	t.keys, t.idx = nil, nil
	t.built, t.pos = false, 0
	t.info = topKInfo{}
}
