package engine

import (
	"math/rand"
	"testing"
	"time"

	"sparqlog/internal/rdf"
)

// randomConsistencyCase builds one store + conjunctive query of the
// consistency corpus (same distribution as TestEngineConsistencyRandom,
// independent seed).
func randomConsistencyCase(rng *rand.Rand) (*rdf.Snapshot, CQ) {
	st := rdf.NewStore()
	nNodes := 4 + rng.Intn(10)
	nPreds := 1 + rng.Intn(3)
	nTriples := 5 + rng.Intn(30)
	for i := 0; i < nTriples; i++ {
		st.Add(itoa(rng.Intn(nNodes)), "p"+itoa(rng.Intn(nPreds)), itoa(rng.Intn(nNodes)))
	}
	sn := st.Freeze()
	nAtoms := 1 + rng.Intn(4)
	nVars := 1 + rng.Intn(4)
	ref := func() TermRef {
		if rng.Float64() < 0.7 {
			return V(rng.Intn(nVars))
		}
		id, ok := sn.Lookup(itoa(rng.Intn(nNodes)))
		if !ok {
			return V(rng.Intn(nVars))
		}
		return C(id)
	}
	var atoms []Atom
	for a := 0; a < nAtoms; a++ {
		p := TermRef{}
		if rng.Float64() < 0.15 {
			p = V(rng.Intn(nVars))
		} else {
			pid, _ := sn.Lookup("p" + itoa(rng.Intn(nPreds)))
			p = C(pid)
		}
		atoms = append(atoms, Atom{S: ref(), P: p, O: ref()})
	}
	return sn, CQ{Atoms: atoms, NumVars: nVars}
}

// TestPlannedOrderingDifferential is the planner's differential suite
// on the engines: on the consistency corpus, statistics-planned graph
// execution must return counts identical to the relational engine, which
// runs the atoms in their syntactic order and so is the order-independent
// reference — for counting and for ASK.
func TestPlannedOrderingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 120; trial++ {
		sn, q := randomConsistencyCase(rng)
		planned := (&GraphEngine{}).Execute(sn, q, time.Second)
		relational := (&RelationalEngine{}).Execute(sn, q, time.Second)
		if planned.TimedOut || relational.TimedOut {
			t.Fatalf("trial %d: unexpected timeout", trial)
		}
		if planned.Count != relational.Count {
			t.Fatalf("trial %d: planned graph count %d, relational %d (atoms=%v)",
				trial, planned.Count, relational.Count, q.Atoms)
		}

		// ASK agreement on the same case.
		qa := q
		qa.Ask = true
		ask := (&GraphEngine{}).Execute(sn, qa, time.Second)
		if (ask.Count > 0) != (relational.Count > 0) {
			t.Fatalf("trial %d: ASK diverges: want %v, planned=%v",
				trial, relational.Count > 0, ask.Count > 0)
		}
	}
}
