package rdf

import "sort"

// Snapshot is an immutable, goroutine-shareable view of a Store's
// contents at Freeze time: its distinct triples in three CSR-style
// orderings (SPO, POS, OSP) — per first component, a contiguous run of
// the remaining two components sorted lexicographically, addressed by a
// dense offsets array — plus a predicate-grouped scan order. Lookups
// return subslices of the dense arrays — no allocation, no mutation, so
// any number of goroutines may query one Snapshot concurrently.
type Snapshot struct {
	dict    map[string]ID // shared with the Store, which never writes it again
	terms   []string      // shares the Store's backing array up to len
	triples []Triple      // first occurrences, in insertion order

	spo csr // subject -> (predicate, object)
	pos csr // predicate -> (object, subject)
	osp csr // object -> (subject, predicate)

	// Scan order: triples grouped by predicate, insertion order
	// preserved within each group; pos.off delimits the groups.
	byPred []Triple

	// stats is the statistics block computed once from the indexes;
	// immutable like everything else here.
	stats *Stats
}

// csr is a compact sparse-row index: for first-component key k, rows
// off[k]:off[k+1] of the parallel arrays b and c hold the remaining two
// triple components, sorted lexicographically by (b, c).
type csr struct {
	off  []uint32
	b, c []ID
}

// row returns the (b, c) parallel slices for key a.
func (x *csr) row(a ID) ([]ID, []ID) {
	if int(a)+1 >= len(x.off) {
		return nil, nil
	}
	lo, hi := x.off[a], x.off[a+1]
	return x.b[lo:hi], x.c[lo:hi]
}

// list returns the c-values of rows with first component a and second
// component b, located by binary search within a's run.
func (x *csr) list(a, b ID) []ID {
	bs, cs := x.row(a)
	i := sort.Search(len(bs), func(i int) bool { return bs[i] >= b })
	j := i + sort.Search(len(bs[i:]), func(k int) bool { return bs[i+k] > b })
	return cs[i:j]
}

// entry is one triple with its components permuted into an ordering's
// (first, second, third), followed, in the SPO build, by its position in
// the builder's insertion order.
type entry [4]uint32

// radix is Freeze's scratch: two entry buffers and one counter per term,
// plus one. IDs are dense, so every sort Freeze needs is a sequence of
// stable counting passes, linear in triples plus terms.
type radix struct {
	es, tmp []entry
	count   []uint32
}

// starts sets count[id] to where the run of entries whose component k
// is id begins in an ordering of es by that component.
func starts(count []uint32, es []entry, k int) {
	clear(count)
	for _, e := range es {
		count[e[k]+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
}

// pass moves src into dst ordered by component k, keeping the order of
// entries that tie on it.
func (r *radix) pass(dst, src []entry, k int) {
	starts(r.count, src, k)
	for _, e := range src {
		dst[r.count[e[k]]] = e
		r.count[e[k]]++
	}
}

// place is the last pass, by first component: it writes the index's
// offsets and its second and third components directly.
func (r *radix) place(es []entry) csr {
	x := csr{off: make([]uint32, len(r.count)), b: make([]ID, len(es)), c: make([]ID, len(es))}
	starts(x.off, es, 0)
	copy(r.count, x.off)
	for _, e := range es {
		i := r.count[e[0]]
		r.count[e[0]]++
		x.b[i], x.c[i] = e[1], e[2]
	}
	return x
}

// buildCSR indexes es, one entry per distinct triple, by stable passes
// on its third, then second, then first component.
func (r *radix) buildCSR(es []entry) csr {
	tmp := r.tmp[:len(es)]
	r.pass(tmp, es, 2)
	r.pass(es, tmp, 1)
	return r.place(es)
}

// Freeze builds an immutable Snapshot of the store's current contents,
// in time linear in triples plus terms. Duplicate triples are dropped
// here: the Snapshot keeps each triple's first occurrence, in insertion
// order. The Snapshot shares the store's term table and dictionary
// instead of copying them (see Store). Freeze may be called repeatedly;
// each call returns an independent Snapshot unaffected by later Store
// mutation.
func (s *Store) Freeze() *Snapshot {
	n, nTerms := len(s.triples), len(s.terms)
	s.shared = true
	sn := &Snapshot{dict: s.dict, terms: s.terms[:nTerms:nTerms]}
	r := &radix{es: make([]entry, n), tmp: make([]entry, n), count: make([]uint32, nTerms+1)}

	// SPO sorts the insertion positions along: ties keep insertion order,
	// so duplicates end up adjacent with their first occurrence first.
	for i, t := range s.triples {
		r.es[i] = entry{t.S, t.P, t.O, uint32(i)}
	}
	r.pass(r.tmp, r.es, 2)
	r.pass(r.es, r.tmp, 1)
	r.pass(r.tmp, r.es, 0)
	first := NewBitset(n)
	distinct := r.tmp[:0]
	for _, e := range r.tmp {
		if d := len(distinct); d > 0 && e[0] == distinct[d-1][0] && e[1] == distinct[d-1][1] && e[2] == distinct[d-1][2] {
			continue
		}
		first.Set(e[3])
		distinct = append(distinct, e)
	}
	sn.triples = make([]Triple, 0, len(distinct))
	for i, t := range s.triples {
		if first.Has(ID(i)) {
			sn.triples = append(sn.triples, t)
		}
	}
	sn.spo = r.place(distinct)

	es := r.es[:len(sn.triples)]
	for i, t := range sn.triples {
		es[i] = entry{t.P, t.O, t.S}
	}
	sn.pos = r.buildCSR(es)
	for i, t := range sn.triples {
		es[i] = entry{t.O, t.S, t.P}
	}
	sn.osp = r.buildCSR(es)

	// POS's offsets delimit the predicate runs; filling them in
	// insertion order keeps it within each run.
	sn.byPred = make([]Triple, len(sn.triples))
	copy(r.count, sn.pos.off)
	for _, t := range sn.triples {
		sn.byPred[r.count[t.P]] = t
		r.count[t.P]++
	}
	sn.stats = computeStats(sn)
	return sn
}

// Stats returns the statistics block computed at Freeze time.
func (sn *Snapshot) Stats() *Stats { return sn.stats }

// Lookup returns the ID of a term if it is known.
func (sn *Snapshot) Lookup(term string) (ID, bool) {
	id, ok := sn.dict[term]
	return id, ok
}

// TermOf returns the string form of an ID.
func (sn *Snapshot) TermOf(id ID) string {
	if int(id) < len(sn.terms) {
		return sn.terms[id]
	}
	return ""
}

// NumTerms returns the dictionary size.
func (sn *Snapshot) NumTerms() int { return len(sn.terms) }

// Len returns the number of distinct triples.
func (sn *Snapshot) Len() int { return len(sn.triples) }

// Triples returns all triples in insertion order (shared backing; do not
// mutate).
func (sn *Snapshot) Triples() []Triple { return sn.triples }

// Has reports whether the snapshot contains the triple.
func (sn *Snapshot) Has(sub, pred, obj ID) bool {
	objs := sn.spo.list(sub, pred)
	i := sort.Search(len(objs), func(i int) bool { return objs[i] >= obj })
	return i < len(objs) && objs[i] == obj
}

// Objects returns the objects of (sub, pred, ?o), sorted ascending.
func (sn *Snapshot) Objects(sub, pred ID) []ID { return sn.spo.list(sub, pred) }

// Subjects returns the subjects of (?s, pred, obj), sorted ascending.
func (sn *Snapshot) Subjects(pred, obj ID) []ID { return sn.pos.list(pred, obj) }

// Predicates returns the predicates of (sub, ?p, obj), sorted ascending.
func (sn *Snapshot) Predicates(sub, obj ID) []ID { return sn.osp.list(obj, sub) }

// SubjectEdges returns the parallel (predicates, objects) slices of all
// triples with the given subject, sorted by (predicate, object).
func (sn *Snapshot) SubjectEdges(sub ID) (preds, objs []ID) { return sn.spo.row(sub) }

// ObjectEdges returns the parallel (subjects, predicates) slices of all
// triples with the given object, sorted by (subject, predicate).
func (sn *Snapshot) ObjectEdges(obj ID) (subs, preds []ID) { return sn.osp.row(obj) }

// SubjectDegree returns the number of triples with the given subject.
func (sn *Snapshot) SubjectDegree(sub ID) int {
	bs, _ := sn.spo.row(sub)
	return len(bs)
}

// ObjectDegree returns the number of triples with the given object.
func (sn *Snapshot) ObjectDegree(obj ID) int {
	bs, _ := sn.osp.row(obj)
	return len(bs)
}

// ScanPredicate returns all triples with the given predicate, in
// insertion order.
func (sn *Snapshot) ScanPredicate(pred ID) []Triple {
	if int(pred)+1 >= len(sn.pos.off) {
		return nil
	}
	return sn.byPred[sn.pos.off[pred]:sn.pos.off[pred+1]]
}

// PredicateCardinality returns the number of triples with the predicate.
func (sn *Snapshot) PredicateCardinality(pred ID) int {
	if int(pred)+1 >= len(sn.pos.off) {
		return 0
	}
	return int(sn.pos.off[pred+1] - sn.pos.off[pred])
}
