package rdf

import (
	"math/rand"
	"testing"
)

func TestStatsSmall(t *testing.T) {
	st := NewStore()
	// p: a->x, a->y, b->x   q: a->a
	st.Add("a", "p", "x")
	st.Add("a", "p", "y")
	st.Add("b", "p", "x")
	st.Add("a", "q", "a")
	sn := st.Freeze()
	stats := sn.Stats()

	if stats.Triples != 4 {
		t.Fatalf("Triples = %d, want 4", stats.Triples)
	}
	if stats.DistinctSubjects != 2 { // a, b
		t.Errorf("DistinctSubjects = %d, want 2", stats.DistinctSubjects)
	}
	if stats.DistinctPredicates != 2 { // p, q
		t.Errorf("DistinctPredicates = %d, want 2", stats.DistinctPredicates)
	}
	if stats.DistinctObjects != 3 { // x, y, a
		t.Errorf("DistinctObjects = %d, want 3", stats.DistinctObjects)
	}

	p, _ := sn.Lookup("p")
	ps := stats.Predicate(p)
	if ps.Card != 3 || ps.Subjects != 2 || ps.Objects != 2 {
		t.Errorf("p stats = %+v, want Card 3, Subjects 2, Objects 2", ps)
	}
	if ps.MaxSubjectFan != 2 { // a has two p-objects
		t.Errorf("p MaxSubjectFan = %d, want 2", ps.MaxSubjectFan)
	}
	if ps.MaxObjectFan != 2 { // x has two p-subjects
		t.Errorf("p MaxObjectFan = %d, want 2", ps.MaxObjectFan)
	}

	q, _ := sn.Lookup("q")
	qs := stats.Predicate(q)
	if qs.Card != 1 || qs.Subjects != 1 || qs.Objects != 1 {
		t.Errorf("q stats = %+v, want all 1", qs)
	}

	// Non-predicate and out-of-dictionary IDs report the zero summary.
	x, _ := sn.Lookup("x")
	if stats.Predicate(x) != (PredStats{}) {
		t.Errorf("non-predicate term has stats %+v", stats.Predicate(x))
	}
	if stats.Predicate(^ID(0)) != (PredStats{}) {
		t.Error("out-of-dictionary ID has nonzero stats")
	}
}

// TestStatsAgainstBruteForce cross-checks the CSR-walk statistics against
// a map-based recount on random stores.
func TestStatsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		st := NewStore()
		nNodes := 2 + rng.Intn(12)
		nPreds := 1 + rng.Intn(4)
		for i := 0; i < 5+rng.Intn(60); i++ {
			st.Add(
				string(rune('a'+rng.Intn(nNodes))),
				"p"+string(rune('0'+rng.Intn(nPreds))),
				string(rune('a'+rng.Intn(nNodes))),
			)
		}
		sn := st.Freeze()
		checkStats(t, sn.Stats(), sn.Triples())
	}
}

// checkStats recounts the statistics block of a triple set with maps and
// fails t where stats disagrees.
func checkStats(t *testing.T, stats *Stats, triples []Triple) {
	t.Helper()
	subs, preds, objs := map[ID]bool{}, map[ID]bool{}, map[ID]bool{}
	type pk struct{ p, t ID }
	card := map[ID]uint32{}
	sFan, oFan := map[pk]uint32{}, map[pk]uint32{}
	pSubs, pObjs := map[pk]bool{}, map[pk]bool{}
	for _, tr := range triples {
		subs[tr.S], preds[tr.P], objs[tr.O] = true, true, true
		card[tr.P]++
		sFan[pk{tr.P, tr.S}]++
		oFan[pk{tr.P, tr.O}]++
		pSubs[pk{tr.P, tr.S}] = true
		pObjs[pk{tr.P, tr.O}] = true
	}
	if stats.Triples != len(triples) {
		t.Fatalf("Triples = %d, want %d", stats.Triples, len(triples))
	}
	if stats.DistinctSubjects != len(subs) || stats.DistinctPredicates != len(preds) || stats.DistinctObjects != len(objs) {
		t.Fatalf("distinct S/P/O = %d/%d/%d, want %d/%d/%d",
			stats.DistinctSubjects, stats.DistinctPredicates, stats.DistinctObjects,
			len(subs), len(preds), len(objs))
	}
	for p := range preds {
		got := stats.Predicate(p)
		var wantS, wantO, maxS, maxO uint32
		for k := range pSubs {
			if k.p == p {
				wantS++
				if sFan[k] > maxS {
					maxS = sFan[k]
				}
			}
		}
		for k := range pObjs {
			if k.p == p {
				wantO++
				if oFan[k] > maxO {
					maxO = oFan[k]
				}
			}
		}
		want := PredStats{Card: card[p], Subjects: wantS, Objects: wantO, MaxSubjectFan: maxS, MaxObjectFan: maxO}
		if got != want {
			t.Fatalf("pred %d stats = %+v, want %+v", p, got, want)
		}
	}
}
