package engine

import (
	"testing"
	"time"

	"sparqlog/internal/rdf"
)

// chainStore builds a store with a path a0 -e-> a1 -e-> ... -e-> a5 and a
// triangle t0 -c-> t1 -c-> t2 -c-> t0.
func chainStore() *rdf.Store {
	st := rdf.NewStore()
	names := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	for i := 0; i+1 < len(names); i++ {
		st.Add(names[i], "e", names[i+1])
	}
	st.Add("t0", "c", "t1")
	st.Add("t1", "c", "t2")
	st.Add("t2", "c", "t0")
	return st
}

// chainCQ builds ?x0 e ?x1 . ?x1 e ?x2 ... of the given length.
func chainCQ(st *rdf.Snapshot, pred string, k int, ask bool) CQ {
	pid, _ := st.Lookup(pred)
	var atoms []Atom
	for i := 0; i < k; i++ {
		atoms = append(atoms, Atom{S: V(i), P: C(pid), O: V(i + 1)})
	}
	return CQ{Atoms: atoms, NumVars: k + 1, Ask: ask}
}

// cycleCQ builds a closed cycle of length k.
func cycleCQ(st *rdf.Snapshot, pred string, k int, ask bool) CQ {
	pid, _ := st.Lookup(pred)
	var atoms []Atom
	for i := 0; i < k; i++ {
		atoms = append(atoms, Atom{S: V(i), P: C(pid), O: V((i + 1) % k)})
	}
	return CQ{Atoms: atoms, NumVars: k, Ask: ask}
}

func engines() []Engine {
	return []Engine{&GraphEngine{}, &RelationalEngine{}}
}

func TestChainCounts(t *testing.T) {
	st := chainStore().Freeze()
	for _, e := range engines() {
		// Paths of length 2 along "e": a0a1a2, a1a2a3, a2a3a4, a3a4a5.
		res := e.Execute(st, chainCQ(st, "e", 2, false), time.Second)
		if res.TimedOut {
			t.Fatalf("%s: unexpected timeout", e.Name())
		}
		if res.Count != 4 {
			t.Errorf("%s: chain-2 count = %d, want 4", e.Name(), res.Count)
		}
	}
}

func TestCycleCounts(t *testing.T) {
	st := chainStore().Freeze()
	for _, e := range engines() {
		// The triangle yields 3 bindings for a 3-cycle (rotations).
		res := e.Execute(st, cycleCQ(st, "c", 3, false), time.Second)
		if res.TimedOut {
			t.Fatalf("%s: unexpected timeout", e.Name())
		}
		if res.Count != 3 {
			t.Errorf("%s: cycle-3 count = %d, want 3", e.Name(), res.Count)
		}
		// No 3-cycle along "e".
		res2 := e.Execute(st, cycleCQ(st, "e", 3, false), time.Second)
		if res2.Count != 0 {
			t.Errorf("%s: e-cycle count = %d, want 0", e.Name(), res2.Count)
		}
	}
}

func TestAskShortCircuit(t *testing.T) {
	st := chainStore().Freeze()
	ge := &GraphEngine{}
	res := ge.Execute(st, chainCQ(st, "e", 3, true), time.Second)
	if res.Count != 1 {
		t.Errorf("ask count = %d, want 1", res.Count)
	}
	// Relational engine answers the same question by counting.
	re := &RelationalEngine{}
	res2 := re.Execute(st, chainCQ(st, "e", 3, true), time.Second)
	if res2.Count == 0 {
		t.Error("relational ask should find results")
	}
}

func TestConstantsInAtoms(t *testing.T) {
	st := chainStore().Freeze()
	a0, _ := st.Lookup("a0")
	pid, _ := st.Lookup("e")
	q := CQ{Atoms: []Atom{{S: C(a0), P: C(pid), O: V(0)}}, NumVars: 1}
	for _, e := range engines() {
		res := e.Execute(st, q, time.Second)
		if res.Count != 1 {
			t.Errorf("%s: constant subject count = %d, want 1", e.Name(), res.Count)
		}
	}
	// Fully ground atom.
	a1, _ := st.Lookup("a1")
	q2 := CQ{Atoms: []Atom{{S: C(a0), P: C(pid), O: C(a1)}}, NumVars: 0}
	for _, e := range engines() {
		if res := e.Execute(st, q2, time.Second); res.Count != 1 {
			t.Errorf("%s: ground atom count = %d, want 1", e.Name(), res.Count)
		}
	}
}

func TestVariablePredicate(t *testing.T) {
	st := chainStore().Freeze()
	a0, _ := st.Lookup("a0")
	q := CQ{Atoms: []Atom{{S: C(a0), P: V(0), O: V(1)}}, NumVars: 2}
	for _, e := range engines() {
		res := e.Execute(st, q, time.Second)
		if res.Count != 1 {
			t.Errorf("%s: var predicate count = %d, want 1", e.Name(), res.Count)
		}
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	b := chainStore()
	b.Add("loop", "e", "loop")
	st := b.Freeze()
	pid, _ := st.Lookup("e")
	q := CQ{Atoms: []Atom{{S: V(0), P: C(pid), O: V(0)}}, NumVars: 1}
	for _, e := range engines() {
		res := e.Execute(st, q, time.Second)
		if res.Count != 1 {
			t.Errorf("%s: self-loop count = %d, want 1", e.Name(), res.Count)
		}
	}
}

func TestEnginesAgreeOnJoins(t *testing.T) {
	st := chainStore().Freeze()
	// Two-atom join with shared variable in different positions.
	pid, _ := st.Lookup("e")
	cid, _ := st.Lookup("c")
	queries := []CQ{
		{Atoms: []Atom{
			{S: V(0), P: C(pid), O: V(1)},
			{S: V(2), P: C(cid), O: V(3)},
		}, NumVars: 4}, // cross product: 5 * 3 = 15
		{Atoms: []Atom{
			{S: V(0), P: C(pid), O: V(1)},
			{S: V(1), P: C(pid), O: V(2)},
			{S: V(2), P: C(pid), O: V(3)},
		}, NumVars: 4}, // chain-3: 3
	}
	want := []int64{15, 3}
	for qi, q := range queries {
		for _, e := range engines() {
			res := e.Execute(st, q, time.Second)
			if res.Count != want[qi] {
				t.Errorf("%s query %d: count = %d, want %d", e.Name(), qi, res.Count, want[qi])
			}
		}
	}
}

func TestTimeout(t *testing.T) {
	// A large random graph with an expensive cyclic query and a tiny
	// timeout must report a timeout, and the reported duration equals the
	// timeout (Figure 3 counts timeouts at full timeout value).
	b := rdf.NewStore()
	for i := 0; i < 3000; i++ {
		b.Add(itoa(i%611), "p", itoa((i*7+1)%611))
	}
	st := b.Freeze()
	pid, _ := st.Lookup("p")
	var atoms []Atom
	for i := 0; i < 6; i++ {
		atoms = append(atoms, Atom{S: V(i), P: C(pid), O: V((i + 1) % 6)})
	}
	q := CQ{Atoms: atoms, NumVars: 6}
	re := &RelationalEngine{MaxRows: 1 << 30}
	res := re.Execute(st, q, time.Microsecond)
	if !res.TimedOut {
		t.Skip("machine too fast for microsecond timeout; skipping")
	}
	if res.Duration != time.Microsecond {
		t.Errorf("timeout duration = %v, want the timeout value", res.Duration)
	}
}

func TestMaterializationCapCountsAsTimeout(t *testing.T) {
	b := rdf.NewStore()
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			b.Add(itoa(i), "p", itoa(40+j))
		}
	}
	st := b.Freeze()
	pid, _ := st.Lookup("p")
	// Cross join of two scans: 1600 * 1600 rows > cap.
	q := CQ{Atoms: []Atom{
		{S: V(0), P: C(pid), O: V(1)},
		{S: V(2), P: C(pid), O: V(3)},
	}, NumVars: 4}
	re := &RelationalEngine{MaxRows: 1000}
	res := re.Execute(st, q, time.Minute)
	if !res.TimedOut {
		t.Error("materialization cap must surface as timeout")
	}
}

func TestWorkloadStats(t *testing.T) {
	st := chainStore().Freeze()
	queries := []CQ{chainCQ(st, "e", 2, true), cycleCQ(st, "c", 3, true)}
	stats := RunWorkload(&GraphEngine{}, st, queries, time.Second)
	if stats.Queries != 2 || stats.Timeouts != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.AvgNanos() <= 0 {
		t.Error("avg must be positive")
	}
	if stats.TimeoutRate() != 0 {
		t.Error("timeout rate must be 0")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
