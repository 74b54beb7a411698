package rdf

import "sort"

// Snapshot is an immutable, goroutine-shareable view of a Store's
// contents at Freeze time: its dictionary and its distinct triples in
// three CSR-style orderings (SPO, POS, OSP) — per first component, a
// contiguous run of the remaining two components sorted
// lexicographically, addressed by a dense offsets array. Every lookup
// and every scan returns subslices of those arrays — no allocation, no
// mutation, so any number of goroutines may query one Snapshot
// concurrently.
type Snapshot struct {
	dict  map[string]ID // shared with the Store, which never writes it again
	terms []string      // shares the Store's backing array up to len

	spo csr // subject -> (predicate, object)
	pos csr // predicate -> (object, subject)
	osp csr // object -> (subject, predicate)

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
// (first, second, third).
type entry [3]ID

// rotate moves an entry's third component to the front: SPO becomes
// OSP, and OSP becomes POS.
func (e entry) rotate() entry { return entry{e[2], e[0], e[1]} }

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

// place is a stable pass by first component that writes an index's
// offsets and its second and third components directly. es must
// already be ordered by (second, third) for the rows to come out
// sorted.
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

// Freeze builds an immutable Snapshot of the store's current contents,
// in time linear in triples plus terms. Duplicate triples are dropped
// here. The Snapshot shares the store's term table and dictionary
// instead of copying them (see Store). Freeze may be called repeatedly;
// each call returns an independent Snapshot unaffected by later Store
// mutation.
func (s *Store) Freeze() *Snapshot {
	n, nTerms := len(s.triples), len(s.terms)
	s.shared = true
	sn := &Snapshot{dict: s.dict, terms: s.terms[:nTerms:nTerms]}
	r := &radix{es: make([]entry, n), tmp: make([]entry, n), count: make([]uint32, nTerms+1)}

	// Three stable passes sort by (s, p, o); duplicates end up adjacent
	// and all but one are skipped.
	for i, t := range s.triples {
		r.es[i] = entry{t.S, t.P, t.O}
	}
	r.pass(r.tmp, r.es, 2)
	r.pass(r.es, r.tmp, 1)
	r.pass(r.tmp, r.es, 0)
	es := r.es[:0]
	for _, e := range r.tmp {
		if len(es) == 0 || e != es[len(es)-1] {
			es = append(es, e)
		}
	}
	sn.spo = r.place(es)

	// The distinct entries are in (s, p, o) order, so one stable pass by
	// object orders them (o, s, p), and a second one by predicate,
	// applied to that, orders them (p, o, s).
	for i, e := range es {
		es[i] = e.rotate()
	}
	sn.osp = r.place(es)
	tmp := r.tmp[:len(es)]
	r.pass(tmp, es, 0)
	for i, e := range tmp {
		tmp[i] = e.rotate()
	}
	sn.pos = r.place(tmp)
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
func (sn *Snapshot) Len() int { return len(sn.spo.b) }

// Triples returns a fresh copy of all triples, in SPO order. It is for
// exporting a snapshot; a query reads an index row instead.
func (sn *Snapshot) Triples() []Triple {
	out := make([]Triple, 0, sn.Len())
	for s := range ID(len(sn.terms)) {
		preds, objs := sn.spo.row(s)
		for i := range preds {
			out = append(out, Triple{s, preds[i], objs[i]})
		}
	}
	return out
}

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

// PredicateEdges returns the parallel (objects, subjects) slices of all
// triples with the given predicate, sorted by (object, subject).
func (sn *Snapshot) PredicateEdges(pred ID) (objs, subs []ID) { return sn.pos.row(pred) }

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
