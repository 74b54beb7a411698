package rdf

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestInternDedup(t *testing.T) {
	s := NewStore()
	a := s.Intern("x")
	b := s.Intern("x")
	if a != b {
		t.Error("interning must be idempotent")
	}
	sn := s.Freeze()
	if sn.NumTerms() != 1 {
		t.Errorf("terms = %d, want 1", sn.NumTerms())
	}
	if sn.TermOf(a) != "x" {
		t.Errorf("TermOf = %q", sn.TermOf(a))
	}
}

func TestAddAndLookup(t *testing.T) {
	s := NewStore()
	s.Add("s1", "p", "o1")
	s.Add("s1", "p", "o2")
	s.Add("s2", "p", "o1")
	s.Add("s1", "p", "o1") // duplicate
	sn := s.Freeze()
	if sn.Len() != 3 {
		t.Fatalf("len = %d, want 3", sn.Len())
	}
	sid, _ := sn.Lookup("s1")
	pid, _ := sn.Lookup("p")
	oid, _ := sn.Lookup("o1")
	if got := len(sn.Objects(sid, pid)); got != 2 {
		t.Errorf("objects = %d, want 2", got)
	}
	if got := len(sn.Subjects(pid, oid)); got != 2 {
		t.Errorf("subjects = %d, want 2", got)
	}
	if got := len(sn.Predicates(sid, oid)); got != 1 {
		t.Errorf("predicates = %d, want 1", got)
	}
	if !sn.Has(sid, pid, oid) {
		t.Error("Has should find stored triple")
	}
	s2id, _ := sn.Lookup("s2")
	o2id, _ := sn.Lookup("o2")
	if sn.Has(s2id, pid, o2id) {
		t.Error("Has found non-existent triple")
	}
	if sn.PredicateCardinality(pid) != 3 {
		t.Errorf("predicate cardinality = %d", sn.PredicateCardinality(pid))
	}
	if sn.SubjectDegree(sid) != 2 || sn.ObjectDegree(oid) != 2 {
		t.Errorf("degrees = %d/%d, want 2/2", sn.SubjectDegree(sid), sn.ObjectDegree(oid))
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.Add("a", "p", "b")
	sn1 := s.Freeze()
	s.Add("a", "p", "c")
	sn2 := s.Freeze()
	aid, _ := sn2.Lookup("a")
	pid, _ := sn2.Lookup("p")
	cid, _ := sn2.Lookup("c")
	if sn1.Len() != 1 || sn1.Has(aid, pid, cid) {
		t.Error("earlier snapshot must not see later mutation")
	}
	if sn2.Len() != 2 || !sn2.Has(aid, pid, cid) {
		t.Error("later snapshot must see the new triple")
	}
	if _, ok := sn1.Lookup("c"); ok {
		t.Error("earlier snapshot dictionary must not see later interning")
	}
}

// TestFreezeSharesDictionary pins the copy-on-write dictionary: Freeze
// hands the store's map to the snapshot, re-adding known terms leaves it
// shared, and the first new term clones it, while readers of the earlier
// snapshot run alongside (run with -race: no write may reach a map a
// snapshot reads).
func TestFreezeSharesDictionary(t *testing.T) {
	mapOf := func(m map[string]ID) uintptr { return reflect.ValueOf(m).Pointer() }
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprint("s", i), "p", fmt.Sprint("o", i%10))
	}
	sn1 := s.Freeze()
	if mapOf(sn1.dict) != mapOf(s.dict) {
		t.Fatal("Freeze copied the dictionary")
	}
	s.Add("s0", "p", "o0")
	s.Intern("s1")
	if mapOf(sn1.dict) != mapOf(s.dict) {
		t.Fatal("re-adding known terms cloned the dictionary")
	}
	pid, _ := sn1.Lookup("p")
	n1 := sn1.NumTerms()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, ok := sn1.Lookup(fmt.Sprint("s", i%100))
				if !ok || sn1.TermOf(id) != fmt.Sprint("s", i%100) || len(sn1.Objects(id, pid)) != 1 {
					t.Errorf("sn1 lost s%d", i%100)
					return
				}
				if _, ok := sn1.Lookup(fmt.Sprint("new", i%300)); ok {
					t.Errorf("sn1 sees new%d, interned after it", i%300)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		s.Add(fmt.Sprint("new", i), "p", "o0")
		if i%50 == 0 {
			s.Freeze()
		}
	}
	sn2 := s.Freeze()
	close(stop)
	wg.Wait()

	if sn1.NumTerms() != n1 || mapOf(sn2.dict) == mapOf(sn1.dict) {
		t.Fatalf("sn1 has %d terms (want %d) and shares sn2's dictionary: %v", sn1.NumTerms(), n1, mapOf(sn2.dict) == mapOf(sn1.dict))
	}
	for i := 0; i < 300; i++ {
		term := fmt.Sprint("new", i)
		if id, ok := sn2.Lookup(term); !ok || sn2.TermOf(id) != term {
			t.Fatalf("sn2 lost %s", term)
		}
	}
}

func TestSnapshotEdges(t *testing.T) {
	s := NewStore()
	s.Add("a", "p", "b")
	s.Add("a", "q", "c")
	s.Add("d", "p", "b")
	sn := s.Freeze()
	aid, _ := sn.Lookup("a")
	bid, _ := sn.Lookup("b")
	preds, objs := sn.SubjectEdges(aid)
	if len(preds) != 2 || len(objs) != 2 {
		t.Fatalf("subject edges = %d/%d, want 2/2", len(preds), len(objs))
	}
	for i := range preds {
		if !sn.Has(aid, preds[i], objs[i]) {
			t.Errorf("subject edge (%d,%d) not in store", preds[i], objs[i])
		}
	}
	subs, preds2 := sn.ObjectEdges(bid)
	if len(subs) != 2 {
		t.Fatalf("object edges = %d, want 2", len(subs))
	}
	for i := range subs {
		if !sn.Has(subs[i], preds2[i], bid) {
			t.Errorf("object edge (%d,%d) not in store", subs[i], preds2[i])
		}
	}
}

func TestMissingLookups(t *testing.T) {
	s := NewStore()
	s.Add("a", "p", "b")
	sn := s.Freeze()
	if _, ok := sn.Lookup("zzz"); ok {
		t.Error("unknown term found")
	}
	if sn.Objects(99, 98) != nil {
		t.Error("objects of unknown ids should be nil")
	}
	if sn.ScanPredicate(97) != nil || sn.PredicateCardinality(97) != 0 {
		t.Error("scan of unknown predicate should be empty")
	}
	if sn.TermOf(12345) != "" {
		t.Error("unknown id must map to empty string")
	}
}

func TestScanPredicateInsertionOrder(t *testing.T) {
	s := NewStore()
	s.Add("z", "p", "y")
	s.Add("a", "q", "b")
	s.Add("a", "p", "b")
	sn := s.Freeze()
	pid, _ := sn.Lookup("p")
	scan := sn.ScanPredicate(pid)
	if len(scan) != 2 {
		t.Fatalf("scan = %d, want 2", len(scan))
	}
	if sn.TermOf(scan[0].S) != "z" || sn.TermOf(scan[1].S) != "a" {
		t.Errorf("scan order not insertion order: %v", scan)
	}
}

// TestSnapshotConcurrentReads hammers one snapshot from many goroutines;
// run with -race to verify the read path performs no mutation.
func TestSnapshotConcurrentReads(t *testing.T) {
	s := NewStore()
	for i := 0; i < 500; i++ {
		s.Add(string(rune('a'+i%17)), string(rune('p'+i%3)), string(rune('A'+i%23)))
	}
	sn := s.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ID((seed*31 + i) % sn.NumTerms())
				sn.Objects(id, id%7)
				sn.Subjects(id%7, id)
				sn.Predicates(id, id)
				sn.Has(id, id%7, id%11)
				sn.SubjectEdges(id)
				sn.ObjectEdges(id)
				sn.ScanPredicate(id % 7)
			}
		}(g)
	}
	wg.Wait()
}
