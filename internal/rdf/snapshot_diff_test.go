package rdf

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// refIndex is the reference every Snapshot accessor is checked against:
// the distinct triples of an Add stream, and the same triples as
// map-of-maps indexes.
type refIndex struct {
	distinct      []Triple
	spo, pos, osp map[ID]map[ID]map[ID]bool
}

func newRefIndex(stream []Triple) *refIndex {
	r := &refIndex{spo: map[ID]map[ID]map[ID]bool{}, pos: map[ID]map[ID]map[ID]bool{}, osp: map[ID]map[ID]map[ID]bool{}}
	for _, t := range stream {
		if r.spo[t.S][t.P][t.O] {
			continue
		}
		r.distinct = append(r.distinct, t)
		put(r.spo, t.S, t.P, t.O)
		put(r.pos, t.P, t.O, t.S)
		put(r.osp, t.O, t.S, t.P)
	}
	return r
}

func put(m map[ID]map[ID]map[ID]bool, a, b, c ID) {
	if m[a] == nil {
		m[a] = map[ID]map[ID]bool{}
	}
	if m[a][b] == nil {
		m[a][b] = map[ID]bool{}
	}
	m[a][b][c] = true
}

// row flattens a's entry into parallel (b, c) slices sorted by (b, c).
func row(m map[ID]map[ID]map[ID]bool, a ID) (bs, cs []ID) {
	for _, b := range slices.Sorted(maps.Keys(m[a])) {
		for _, c := range slices.Sorted(maps.Keys(m[a][b])) {
			bs, cs = append(bs, b), append(cs, c)
		}
	}
	return bs, cs
}

// sortedTriples returns a sorted copy of ts, for comparing triple sets.
func sortedTriples(ts []Triple) []Triple {
	return slices.SortedFunc(slices.Values(ts), func(x, y Triple) int {
		return cmp.Or(cmp.Compare(x.S, y.S), cmp.Compare(x.P, y.P), cmp.Compare(x.O, y.O))
	})
}

// checkSnapshot compares every accessor of sn with the reference, over
// every ID of the dictionary and one past it.
func checkSnapshot(t *testing.T, sn *Snapshot, terms []string, ref *refIndex) {
	t.Helper()
	if sn.NumTerms() != len(terms) {
		t.Fatalf("NumTerms = %d, want %d", sn.NumTerms(), len(terms))
	}
	for id, term := range terms {
		if got, ok := sn.Lookup(term); !ok || got != ID(id) || sn.TermOf(ID(id)) != term {
			t.Fatalf("term %q: Lookup = %d/%v, TermOf(%d) = %q", term, got, ok, id, sn.TermOf(ID(id)))
		}
	}
	if got, want := sortedTriples(sn.Triples()), sortedTriples(ref.distinct); !slices.Equal(got, want) || sn.Len() != len(want) {
		t.Fatalf("Triples = %v (Len %d), want the set %v", got, sn.Len(), want)
	}
	n := ID(len(terms))
	for a := ID(0); a <= n; a++ {
		wantP, wantO := row(ref.spo, a)
		if gotP, gotO := sn.SubjectEdges(a); !slices.Equal(gotP, wantP) || !slices.Equal(gotO, wantO) || sn.SubjectDegree(a) != len(wantP) {
			t.Fatalf("SubjectEdges(%d) = %v/%v (degree %d), want %v/%v", a, gotP, gotO, sn.SubjectDegree(a), wantP, wantO)
		}
		wantS, wantP := row(ref.osp, a)
		if gotS, gotP := sn.ObjectEdges(a); !slices.Equal(gotS, wantS) || !slices.Equal(gotP, wantP) || sn.ObjectDegree(a) != len(wantS) {
			t.Fatalf("ObjectEdges(%d) = %v/%v (degree %d), want %v/%v", a, gotS, gotP, sn.ObjectDegree(a), wantS, wantP)
		}
		wantO, wantS = row(ref.pos, a)
		if gotO, gotS := sn.PredicateEdges(a); !slices.Equal(gotO, wantO) || !slices.Equal(gotS, wantS) {
			t.Fatalf("PredicateEdges(%d) = %v/%v, want %v/%v", a, gotO, gotS, wantO, wantS)
		}
		for b := ID(0); b <= n; b++ {
			if got, want := sn.Objects(a, b), slices.Sorted(maps.Keys(ref.spo[a][b])); !slices.Equal(got, want) {
				t.Fatalf("Objects(%d, %d) = %v, want %v", a, b, got, want)
			}
			if got, want := sn.Subjects(a, b), slices.Sorted(maps.Keys(ref.pos[a][b])); !slices.Equal(got, want) {
				t.Fatalf("Subjects(%d, %d) = %v, want %v", a, b, got, want)
			}
			if got, want := sn.Predicates(a, b), slices.Sorted(maps.Keys(ref.osp[b][a])); !slices.Equal(got, want) {
				t.Fatalf("Predicates(%d, %d) = %v, want %v", a, b, got, want)
			}
			for c := ID(0); c <= n; c++ {
				if sn.Has(a, b, c) != ref.spo[a][b][c] {
					t.Fatalf("Has(%d, %d, %d) = %v", a, b, c, !ref.spo[a][b][c])
				}
			}
		}
	}
	checkStats(t, sn.Stats(), ref.distinct)
}

// TestSnapshotAccessorsDifferential pins every Snapshot accessor against
// the map-of-maps reference on random Add streams with duplicates
// injected, terms that appear in no triple, stores with one predicate,
// the empty store, and a second Freeze after more adds (the first
// snapshot is checked again afterwards, against its own prefix). The
// reference dictionary numbers terms densely in order of first use.
func TestSnapshotAccessorsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		st := NewStore()
		var terms []string
		ids := map[string]ID{}
		intern := func(term string) ID {
			if _, ok := ids[term]; !ok {
				ids[term] = ID(len(terms))
				terms = append(terms, term)
			}
			return ids[term]
		}
		nNodes := 1 + rng.Intn(10)
		nPreds := 1 + rng.Intn(3)
		if trial%4 == 0 {
			nPreds = 1
		}
		adds := rng.Intn(50)
		if trial == 0 {
			adds = 0
		}
		var stream []Triple
		var sn1 *Snapshot
		var terms1, prefix int
		for i := 0; i < adds; i++ {
			if i == adds/2 {
				sn1, terms1, prefix = st.Freeze(), len(terms), len(stream)
			}
			switch r := rng.Float64(); {
			case r < 0.1:
				term := fmt.Sprintf("unused%d", rng.Intn(5))
				st.Intern(term)
				intern(term)
			case r < 0.35 && len(stream) > 0:
				tr := stream[rng.Intn(len(stream))]
				st.Add(terms[tr.S], terms[tr.P], terms[tr.O])
				stream = append(stream, tr)
			default:
				s, o := fmt.Sprintf("n%d", rng.Intn(nNodes)), fmt.Sprintf("n%d", rng.Intn(nNodes))
				p := fmt.Sprintf("p%d", rng.Intn(nPreds))
				if rng.Intn(8) == 0 {
					p = s // a term in two positions
				}
				st.Add(s, p, o)
				stream = append(stream, Triple{intern(s), intern(p), intern(o)})
			}
		}
		checkSnapshot(t, st.Freeze(), terms, newRefIndex(stream))
		if sn1 != nil {
			checkSnapshot(t, sn1, terms[:terms1], newRefIndex(stream[:prefix]))
			for _, term := range terms[terms1:] {
				if _, ok := sn1.Lookup(term); ok {
					t.Fatalf("first snapshot sees %q, interned after it", term)
				}
			}
		}
	}
}
