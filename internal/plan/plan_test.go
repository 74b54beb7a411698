package plan

import (
	"math/rand"
	"sort"
	"testing"

	"sparqlog/internal/rdf"
)

// testGraph builds a small skewed store: a high-cardinality predicate
// "big" (fan-out 10 from every hub) and a selective predicate "rare"
// with a handful of triples.
func testGraph(t testing.TB) (*rdf.Snapshot, map[string]rdf.ID) {
	t.Helper()
	st := rdf.NewStore()
	for h := 0; h < 20; h++ {
		hub := "hub" + itoa(h)
		for k := 0; k < 10; k++ {
			st.Add(hub, "big", "leaf"+itoa(h)+"_"+itoa(k))
		}
	}
	for i := 0; i < 3; i++ {
		st.Add("hub"+itoa(i), "rare", "gold")
	}
	// Each hub has one distinct colour: an object-bound colour atom is
	// maximally selective (card/objects = 1).
	for h := 0; h < 20; h++ {
		st.Add("hub"+itoa(h), "colour", "c"+itoa(h))
	}
	sn := st.Freeze()
	ids := map[string]rdf.ID{}
	for _, term := range []string{"big", "rare", "colour", "c5", "gold", "hub0"} {
		id, ok := sn.Lookup(term)
		if !ok {
			t.Fatalf("term %q missing", term)
		}
		ids[term] = id
	}
	return sn, ids
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

// TestGreedyPicksSelectiveFirst: with ?x rare gold written last, the
// planner must move it first and keep the connected big-atom after it.
func TestGreedyPicksSelectiveFirst(t *testing.T) {
	sn, ids := testGraph(t)
	atoms := []Atom{
		{S: V(0), P: C(ids["big"]), O: V(1)},            // ~200 triples
		{S: V(0), P: C(ids["rare"]), O: C(ids["gold"])}, // 3 triples, object const
	}
	p := For(sn, atoms, 2)
	if p.Order[0] != 1 || p.Order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", p.Order)
	}
	// After ?x is bound, the big atom estimate is its average fan-out.
	if p.Est[1] < 5 || p.Est[1] > 15 {
		t.Errorf("bound big-atom estimate = %v, want ~10", p.Est[1])
	}
	if p.Est[0] > float64(3) {
		t.Errorf("rare-atom estimate = %v, want <= 3", p.Est[0])
	}
}

// TestConnectedPreference: the planner must not take a cross product
// while an atom connected to the bound subgraph remains, even when the
// disconnected atom has a smaller estimate.
func TestConnectedPreference(t *testing.T) {
	sn, ids := testGraph(t)
	atoms := []Atom{
		{S: V(0), P: C(ids["rare"]), O: V(1)},           // est 3, disconnected from v2/v3
		{S: V(2), P: C(ids["big"]), O: V(3)},            // est 10 once v2 is bound
		{S: V(2), P: C(ids["colour"]), O: C(ids["c5"])}, // est 1: the anchor
	}
	p := For(sn, atoms, 4)
	// The anchor is cheapest, then the planner must take the connected
	// big atom (est 10) over the cheaper disconnected rare atom (est 3).
	want := []int{2, 1, 0}
	for i, ai := range want {
		if p.Order[i] != ai {
			t.Fatalf("order = %v, want %v (connected-subgraph preference)", p.Order, want)
		}
	}
}

// TestAbsentPredicateOrdersFirst: a constant predicate with no triples
// has estimate 0 and must be evaluated first so execution dies instantly.
func TestAbsentPredicateOrdersFirst(t *testing.T) {
	sn, ids := testGraph(t)
	gold := ids["gold"] // interned but never used as a predicate
	atoms := []Atom{
		{S: V(0), P: C(ids["big"]), O: V(1)},
		{S: V(0), P: C(gold), O: V(1)},
	}
	p := For(sn, atoms, 2)
	if p.Order[0] != 1 {
		t.Fatalf("order = %v, want the dead atom first", p.Order)
	}
	if p.Est[0] != 0 {
		t.Fatalf("dead atom estimate = %v, want 0", p.Est[0])
	}
}

// TestPlanIsPermutation fuzzes random atom sets: every plan must be a
// permutation of the atom indexes, with Est/Rows aligned.
func TestPlanIsPermutation(t *testing.T) {
	sn, ids := testGraph(t)
	rng := rand.New(rand.NewSource(5))
	preds := []rdf.ID{ids["big"], ids["rare"]}
	for trial := 0; trial < 200; trial++ {
		nAtoms := 1 + rng.Intn(6)
		nVars := 1 + rng.Intn(5)
		ref := func() TermRef {
			if rng.Float64() < 0.7 {
				return V(rng.Intn(nVars))
			}
			return C(ids["gold"])
		}
		var atoms []Atom
		for i := 0; i < nAtoms; i++ {
			pr := TermRef(C(preds[rng.Intn(2)]))
			if rng.Float64() < 0.2 {
				pr = V(rng.Intn(nVars))
			}
			atoms = append(atoms, Atom{S: ref(), P: pr, O: ref()})
		}
		p := For(sn, atoms, nVars)
		if len(p.Order) != nAtoms || len(p.Est) != nAtoms || len(p.Rows) != nAtoms {
			t.Fatalf("trial %d: ragged plan %+v", trial, p)
		}
		sorted := append([]int(nil), p.Order...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("trial %d: order %v is not a permutation", trial, p.Order)
			}
		}
	}
}
