package engine

import (
	"math/rand"
	"testing"
	"time"

	"sparqlog/internal/rdf"
)

// TestEngineConsistencyRandom is the cross-engine differential test: on
// random stores and random conjunctive queries, the planned graph engine
// and the syntactic-order relational engine must agree on result counts
// (for counting) and emptiness (for ASK).
func TestEngineConsistencyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		st := rdf.NewStore()
		nNodes := 4 + rng.Intn(10)
		nPreds := 1 + rng.Intn(3)
		nTriples := 5 + rng.Intn(30)
		for i := 0; i < nTriples; i++ {
			s := itoa(rng.Intn(nNodes))
			p := "p" + itoa(rng.Intn(nPreds))
			o := itoa(rng.Intn(nNodes))
			st.Add(s, p, o)
		}
		sn := st.Freeze()
		// Random CQ: 1-4 atoms over up to 4 variables, constants mixed in.
		nAtoms := 1 + rng.Intn(4)
		nVars := 1 + rng.Intn(4)
		var atoms []Atom
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
		for a := 0; a < nAtoms; a++ {
			pid, _ := sn.Lookup("p" + itoa(rng.Intn(nPreds)))
			atoms = append(atoms, Atom{S: ref(), P: C(pid), O: ref()})
		}
		q := CQ{Atoms: atoms, NumVars: nVars}

		graph := (&GraphEngine{}).Execute(sn, q, time.Second)
		relational := (&RelationalEngine{}).Execute(sn, q, time.Second)
		if graph.TimedOut || relational.TimedOut {
			t.Fatalf("trial %d: unexpected timeout", trial)
		}
		if graph.Count != relational.Count {
			t.Fatalf("trial %d: counts diverge: graph=%d relational=%d (atoms=%v)",
				trial, graph.Count, relational.Count, atoms)
		}
		// ASK agreement across both engines.
		qa := q
		qa.Ask = true
		a1 := (&GraphEngine{}).Execute(sn, qa, time.Second)
		a2 := (&RelationalEngine{}).Execute(sn, qa, time.Second)
		want := graph.Count > 0
		if (a1.Count > 0) != want || (a2.Count > 0) != want {
			t.Fatalf("trial %d: ASK diverges: want %v, got %v/%v",
				trial, want, a1.Count > 0, a2.Count > 0)
		}
	}
}

// TestEngineConsistencyVarPredicates repeats the differential test with
// variable predicates, which exercise different index paths.
func TestEngineConsistencyVarPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		st := rdf.NewStore()
		for i := 0; i < 20; i++ {
			st.Add(itoa(rng.Intn(6)), "p"+itoa(rng.Intn(2)), itoa(rng.Intn(6)))
		}
		sn := st.Freeze()
		// ?x ?p ?y . ?y ?p ?z : shared predicate variable.
		q := CQ{Atoms: []Atom{
			{S: V(0), P: V(3), O: V(1)},
			{S: V(1), P: V(3), O: V(2)},
		}, NumVars: 4}
		g := (&GraphEngine{}).Execute(sn, q, time.Second)
		r := (&RelationalEngine{}).Execute(sn, q, time.Second)
		if g.Count != r.Count {
			t.Fatalf("trial %d: var-predicate counts diverge: %d vs %d", trial, g.Count, r.Count)
		}
	}
}
