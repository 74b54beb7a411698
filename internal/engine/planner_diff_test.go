package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sparqlog/internal/plan"
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

// TestPlannedOrderingDifferential is the planner's differential suite:
// on the consistency corpus, statistics-planned execution (uncached and
// cached) must return counts identical to the order-independent
// references — syntactic graph execution (the pre-planner baseline that
// remains in-tree) and the materializing relational engine — for both
// engines, including the relational engine's planner-ordered mode.
func TestPlannedOrderingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 120; trial++ {
		sn, q := randomConsistencyCase(rng)
		cache := plan.NewCache(sn)

		planned := (&GraphEngine{}).Execute(sn, q, time.Second)
		cached := (&GraphEngine{Plans: cache}).Execute(sn, q, time.Second)
		cachedAgain := (&GraphEngine{Plans: cache}).Execute(sn, q, time.Second)
		syntactic := (&GraphEngine{Order: OrderSyntactic}).Execute(sn, q, time.Second)
		relational := (&RelationalEngine{}).Execute(sn, q, time.Second)
		relPlanned := (&RelationalEngine{Reorder: true, Plans: cache}).Execute(sn, q, time.Second)

		for _, res := range []Result{planned, cached, cachedAgain, syntactic, relational, relPlanned} {
			if res.TimedOut {
				t.Fatalf("trial %d: unexpected timeout", trial)
			}
		}
		want := syntactic.Count
		if planned.Count != want || cached.Count != want || cachedAgain.Count != want {
			t.Fatalf("trial %d: graph counts diverge: planned=%d cached=%d/%d syntactic=%d (atoms=%v)",
				trial, planned.Count, cached.Count, cachedAgain.Count, want, q.Atoms)
		}
		if relational.Count != want || relPlanned.Count != want {
			t.Fatalf("trial %d: relational counts diverge: syntactic=%d planned=%d want=%d (atoms=%v)",
				trial, relational.Count, relPlanned.Count, want, q.Atoms)
		}

		// ASK agreement on the same case.
		qa := q
		qa.Ask = true
		askPlanned := (&GraphEngine{Plans: cache}).Execute(sn, qa, time.Second)
		askRel := (&RelationalEngine{Reorder: true, Plans: cache, PipelinedAsk: true}).Execute(sn, qa, time.Second)
		if (askPlanned.Count > 0) != (want > 0) || (askRel.Count > 0) != (want > 0) {
			t.Fatalf("trial %d: ASK diverges: want %v, planned=%v relational=%v",
				trial, want > 0, askPlanned.Count > 0, askRel.Count > 0)
		}
	}
}

// TestExplainMatchesExecution: the instrumented explain run must return
// the same count as plain execution, report a permutation of the atoms,
// and its final actual row count must equal the result count.
func TestExplainMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		sn, q := randomConsistencyCase(rng)
		e := &GraphEngine{}
		explained, res := e.Explain(context.Background(), sn, q)
		plain := e.Execute(sn, q, time.Second)
		if res.Count != plain.Count {
			t.Fatalf("trial %d: explain count %d != execute count %d", trial, res.Count, plain.Count)
		}
		seen := make([]bool, len(q.Atoms))
		for _, ai := range explained.Plan.Order {
			if ai < 0 || ai >= len(q.Atoms) || seen[ai] {
				t.Fatalf("trial %d: order %v is not a permutation", trial, explained.Plan.Order)
			}
			seen[ai] = true
		}
		if n := len(q.Atoms); explained.Actual[n-1] != res.Count {
			t.Fatalf("trial %d: final actual rows %d != count %d", trial, explained.Actual[n-1], res.Count)
		}
		if explained.Format(sn.TermOf, nil) == "" {
			t.Fatal("empty explain rendering")
		}
	}
}

// TestPlanCacheAmortizes: repeated shapes must hit the cache, and plans
// must be shared pointers, not re-planned copies.
func TestPlanCacheAmortizes(t *testing.T) {
	sn, q := randomConsistencyCase(rand.New(rand.NewSource(7)))
	cache := plan.NewCache(sn)
	e := &GraphEngine{Plans: cache}
	for i := 0; i < 10; i++ {
		e.Execute(sn, q, time.Second)
	}
	if cache.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", cache.Misses())
	}
	if cache.Hits() != 9 {
		t.Fatalf("hits = %d, want 9", cache.Hits())
	}
}

// TestColumnarEngineDifferential: the columnar batch pipeline must
// count exactly like the backtracking search on the consistency
// corpus, and its per-operator stats must be self-consistent (final
// actual rows == count).
func TestColumnarEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 120; trial++ {
		sn, q := randomConsistencyCase(rng)
		e := &GraphEngine{}
		search := e.Execute(sn, q, time.Second)
		columnar, _, _ := e.runColumnar(context.Background(), sn, q, e.order(sn, q))
		if search.TimedOut || columnar.TimedOut {
			t.Fatalf("trial %d: unexpected timeout", trial)
		}
		if search.Count != columnar.Count {
			t.Fatalf("trial %d: columnar count %d != search count %d (atoms=%v)",
				trial, columnar.Count, search.Count, q.Atoms)
		}
		explained, res := e.Explain(context.Background(), sn, q)
		if res.Count != search.Count {
			t.Fatalf("trial %d: columnar explain count %d != %d", trial, res.Count, search.Count)
		}
		if n := len(q.Atoms); explained.Batches == nil || explained.Actual[n-1] != res.Count {
			t.Fatalf("trial %d: explain stats inconsistent: actual=%v batches=%v count=%d",
				trial, explained.Actual, explained.Batches, res.Count)
		}
	}
}
