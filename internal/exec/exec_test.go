package exec

import (
	"context"
	"testing"

	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
)

// chain builds a -p-> b -p-> c -p-> d plus a stray edge.
func chainSnapshot(t *testing.T) (*rdf.Snapshot, func(string) rdf.ID) {
	t.Helper()
	st := rdf.NewStore()
	st.Add("a", "p", "b")
	st.Add("b", "p", "c")
	st.Add("c", "p", "d")
	st.Add("a", "q", "d")
	sn := st.Freeze()
	id := func(s string) rdf.ID {
		v, ok := sn.Lookup(s)
		if !ok {
			t.Fatalf("term %q missing", s)
		}
		return v
	}
	return sn, id
}

func drain(t *testing.T, op Operator) []*Batch {
	t.Helper()
	batches, err := Materialize(NewCtx(context.Background()), op)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return batches
}

func rowsOf(batches []*Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Rows()
	}
	return n
}

func TestJoinChain(t *testing.T) {
	sn, id := chainSnapshot(t)
	// ?x p ?y . ?y p ?z : (a,b,c) and (b,c,d).
	p := plan.C(id("p"))
	src := NewUnit(3)
	j1 := NewJoin(sn, src, plan.Atom{S: plan.V(0), P: p, O: plan.V(1)})
	j2 := NewJoin(sn, j1, plan.Atom{S: plan.V(1), P: p, O: plan.V(2)})
	batches := drain(t, j2)
	if rowsOf(batches) != 2 {
		t.Fatalf("rows = %d, want 2", rowsOf(batches))
	}
	got := map[[3]rdf.ID]bool{}
	for _, b := range batches {
		for r := 0; r < b.Rows(); r++ {
			got[[3]rdf.ID{b.Get(0, r), b.Get(1, r), b.Get(2, r)}] = true
		}
	}
	if !got[[3]rdf.ID{id("a"), id("b"), id("c")}] || !got[[3]rdf.ID{id("b"), id("c"), id("d")}] {
		t.Fatalf("unexpected rows: %v", got)
	}
	// Per-operator stats flowed.
	if j2.Stats().Rows != 2 || j1.Stats().Rows != 3 {
		t.Fatalf("stats = %+v / %+v", j1.Stats(), j2.Stats())
	}
}

func TestJoinRepeatedVariable(t *testing.T) {
	st := rdf.NewStore()
	st.Add("n", "p", "n")
	st.Add("a", "p", "b")
	sn := st.Freeze()
	pid, _ := sn.Lookup("p")
	// ?x p ?x matches only the self loop.
	j := NewJoin(sn, NewUnit(1), plan.Atom{S: plan.V(0), P: plan.C(pid), O: plan.V(0)})
	if n := rowsOf(drain(t, j)); n != 1 {
		t.Fatalf("self-loop rows = %d, want 1", n)
	}
}

func TestJoinAbsentConstantMatchesNothing(t *testing.T) {
	sn, _ := chainSnapshot(t)
	j := NewJoin(sn, NewUnit(1), plan.Atom{S: plan.V(0), P: plan.C(Unbound), O: plan.V(0)})
	if n := rowsOf(drain(t, j)); n != 0 {
		t.Fatalf("absent predicate matched %d rows", n)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	sn, id := chainSnapshot(t)
	// ?x ?p ?y projected on ?x: distinct subjects a, b, c.
	src := NewUnit(3)
	j := NewJoin(sn, src, plan.Atom{S: plan.V(0), P: plan.V(1), O: plan.V(2)})
	d := NewDistinct(j, []int{0})
	if n := rowsOf(drain(t, d)); n != 3 {
		t.Fatalf("distinct subjects = %d, want 3", n)
	}
	d.Reset()
	l := NewLimit(d, 1, 1)
	batches := drain(t, l)
	if rowsOf(batches) != 1 || batches[0].Get(0, 0) != id("b") {
		t.Fatalf("offset 1 limit 1 = %v", batches)
	}
}

func TestOptionalKeepsUnmatchedRows(t *testing.T) {
	sn, id := chainSnapshot(t)
	p := plan.C(id("p"))
	src := NewJoin(sn, NewUnit(2), plan.Atom{S: plan.V(0), P: p, O: plan.V(1)})
	// OPTIONAL { ?y p ?z } — d has no outgoing p.
	seed := NewSeed(3)
	inner := NewJoin(sn, seed, plan.Atom{S: plan.V(1), P: p, O: plan.V(2)})
	// Widen the outer stream to 3 slots to match.
	src3 := NewJoin(sn, NewUnit(3), plan.Atom{S: plan.V(0), P: p, O: plan.V(1)})
	opt := NewOptional(src3, inner, seed)
	batches := drain(t, opt)
	if rowsOf(batches) != 3 {
		t.Fatalf("optional rows = %d, want 3", rowsOf(batches))
	}
	unmatched := 0
	for _, b := range batches {
		for r := 0; r < b.Rows(); r++ {
			if b.Get(2, r) == Unbound {
				unmatched++
			}
		}
	}
	if unmatched != 1 {
		t.Fatalf("unmatched rows = %d, want 1 (c-d)", unmatched)
	}
	_ = src
}

func TestUnionOrderAndMinus(t *testing.T) {
	sn, id := chainSnapshot(t)
	// { ?x p ?y } UNION { ?x q ?y } : 3 + 1 rows, left first.
	ls, rs := NewSeed(2), NewSeed(2)
	left := NewJoin(sn, ls, plan.Atom{S: plan.V(0), P: plan.C(id("p")), O: plan.V(1)})
	right := NewJoin(sn, rs, plan.Atom{S: plan.V(0), P: plan.C(id("q")), O: plan.V(1)})
	u := NewUnion(NewUnit(2), left, ls, right, rs)
	batches := drain(t, u)
	if rowsOf(batches) != 4 {
		t.Fatalf("union rows = %d, want 4", rowsOf(batches))
	}
	last := batches[len(batches)-1]
	if last.Get(1, last.Rows()-1) != id("d") {
		t.Fatalf("right branch should come last")
	}

	// MINUS { ?x q ?z } shares only slot 0 with the input, so the row
	// with subject a is removed (compatible on the shared slot).
	srcM := NewJoin(sn, NewUnit(3), plan.Atom{S: plan.V(0), P: plan.C(id("p")), O: plan.V(1)})
	innerM := NewJoin(sn, NewUnit(3), plan.Atom{S: plan.V(0), P: plan.C(id("q")), O: plan.V(2)})
	m := NewMinus(srcM, innerM)
	n := 0
	for _, b := range drain(t, m) {
		for r := 0; r < b.Rows(); r++ {
			if b.Get(0, r) == id("a") {
				t.Fatal("row with subject a should have been removed")
			}
			n++
		}
	}
	if n != 2 {
		t.Fatalf("minus rows = %d, want 2", n)
	}
}

func TestRowLimitEnforced(t *testing.T) {
	sn, _ := chainSnapshot(t)
	c := NewCtx(context.Background())
	c.MaxRows = 2
	j := NewJoin(sn, NewUnit(3), plan.Atom{S: plan.V(0), P: plan.V(1), O: plan.V(2)})
	_, err := Materialize(c, j)
	if err != ErrRowLimit {
		t.Fatalf("err = %v, want ErrRowLimit", err)
	}
}

func TestCancellation(t *testing.T) {
	sn, _ := chainSnapshot(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCtx(ctx)
	c.steps = -1 // force the next Check to poll
	j := NewJoin(sn, NewUnit(3), plan.Atom{S: plan.V(0), P: plan.V(1), O: plan.V(2)})
	if _, err := Materialize(c, j); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPoolInterning(t *testing.T) {
	sn, id := chainSnapshot(t)
	pool := NewPool(sn)
	if got := pool.Intern("a"); got != id("a") {
		t.Fatalf("store term interned to %d", got)
	}
	x := pool.Intern("computed")
	if pool.InStore(x) {
		t.Fatal("overflow ID claims to be a store term")
	}
	if y := pool.Intern("computed"); y != x {
		t.Fatal("overflow interning must dedup")
	}
	if pool.Text(x) != "computed" {
		t.Fatalf("text = %q", pool.Text(x))
	}
	if pool.Intern("") != Unbound || pool.Text(Unbound) != "" {
		t.Fatal("empty string must map to Unbound")
	}
}
