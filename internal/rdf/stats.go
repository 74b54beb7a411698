package rdf

// Stats is the statistics block a Snapshot computes once at Freeze time,
// the way a database gathers table statistics at load: global distinct
// counts plus a per-predicate summary. The cost-based planner of
// internal/plan consumes it to estimate atom cardinalities without
// touching the indexes, so planning is O(atoms²) independent of data
// size.
//
// All fields describe the frozen triple set and never change; a Stats
// may be read from any number of goroutines.
type Stats struct {
	// Triples is the total number of distinct triples.
	Triples int
	// DistinctSubjects, DistinctPredicates and DistinctObjects count
	// terms appearing in each position at least once.
	DistinctSubjects   int
	DistinctPredicates int
	DistinctObjects    int

	// pred is indexed by term ID (dense over the dictionary; terms that
	// never appear as a predicate hold the zero summary).
	pred []PredStats
}

// PredStats summarizes one predicate's triples.
type PredStats struct {
	// Card is the number of triples with this predicate.
	Card uint32
	// Subjects and Objects are the distinct subject / object counts
	// under this predicate.
	Subjects uint32
	Objects  uint32
	// MaxSubjectFan is the largest number of objects any single subject
	// has under this predicate; MaxObjectFan mirrors it for objects.
	// They bound the error of the average-degree estimates.
	MaxSubjectFan uint32
	MaxObjectFan  uint32
}

// Predicate returns the summary for a predicate ID (zero for IDs that
// never appear in predicate position, including out-of-dictionary IDs).
func (st *Stats) Predicate(p ID) PredStats {
	if int(p) < len(st.pred) {
		return st.pred[p]
	}
	return PredStats{}
}

// computeStats derives the statistics block from the snapshot's freshly
// built indexes. Each CSR ordering is walked once, so the cost is O(n)
// on top of the index sorts Freeze already pays.
func computeStats(sn *Snapshot) *Stats {
	nTerms := len(sn.terms)
	st := &Stats{
		Triples: sn.Len(),
		pred:    make([]PredStats, nTerms),
	}
	for p := 0; p < nTerms; p++ {
		st.pred[p].Card = sn.pos.off[p+1] - sn.pos.off[p]
		if st.pred[p].Card > 0 {
			st.DistinctPredicates++
		}
	}
	// SPO rows are sorted by (predicate, object): each run of one
	// predicate within a subject's row is one distinct subject for that
	// predicate, and the run length is that subject's fan-out.
	for s := 0; s < nTerms; s++ {
		preds, _ := sn.spo.row(ID(s))
		if len(preds) == 0 {
			continue
		}
		st.DistinctSubjects++
		for i := 0; i < len(preds); {
			j := i
			for j < len(preds) && preds[j] == preds[i] {
				j++
			}
			ps := &st.pred[preds[i]]
			ps.Subjects++
			if fan := uint32(j - i); fan > ps.MaxSubjectFan {
				ps.MaxSubjectFan = fan
			}
			i = j
		}
	}
	// POS rows are sorted by (object, subject): runs of one object give
	// the distinct objects and per-object fan-in of each predicate.
	for p := 0; p < nTerms; p++ {
		objs, _ := sn.pos.row(ID(p))
		for i := 0; i < len(objs); {
			j := i
			for j < len(objs) && objs[j] == objs[i] {
				j++
			}
			ps := &st.pred[p]
			ps.Objects++
			if fan := uint32(j - i); fan > ps.MaxObjectFan {
				ps.MaxObjectFan = fan
			}
			i = j
		}
	}
	for o := 0; o < nTerms; o++ {
		if subs, _ := sn.osp.row(ID(o)); len(subs) > 0 {
			st.DistinctObjects++
		}
	}
	return st
}
