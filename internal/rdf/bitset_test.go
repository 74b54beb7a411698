package rdf

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(200)
	if b.Count() != 0 {
		t.Fatalf("fresh bitset count = %d", b.Count())
	}
	if !b.Set(3) || !b.Set(64) || !b.Set(199) {
		t.Fatal("first Set must report newly inserted")
	}
	if b.Set(64) {
		t.Fatal("second Set of the same id must report not inserted")
	}
	for _, id := range []ID{3, 64, 199} {
		if !b.Has(id) {
			t.Errorf("Has(%d) = false after Set", id)
		}
	}
	if b.Has(5) || b.Has(1000) {
		t.Error("absent / out-of-range ids must read as absent")
	}
	if b.Set(1000) {
		t.Error("out-of-range Set must be a no-op reporting false")
	}
	if got := b.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if ids := b.AppendIDs(nil); len(ids) != 3 || ids[0] != 3 || ids[1] != 64 || ids[2] != 199 {
		t.Errorf("AppendIDs = %v, want [3 64 199]", ids)
	}
	b.Unset(64)
	if b.Has(64) || b.Count() != 2 {
		t.Error("Unset did not remove the id")
	}
}

func TestBitsetAgainstMap(t *testing.T) {
	const n = 513 // crosses word boundaries
	rng := rand.New(rand.NewSource(11))
	b := NewBitset(n)
	ref := map[ID]bool{}
	for i := 0; i < 2000; i++ {
		id := ID(rng.Intn(n))
		if rng.Intn(3) == 0 {
			b.Unset(id)
			delete(ref, id)
		} else {
			if b.Set(id) == ref[id] {
				t.Fatalf("Set(%d) newly-inserted report disagrees with reference", id)
			}
			ref[id] = true
		}
	}
	var want []ID
	for id := range ref {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := b.AppendIDs(nil)
	if len(got) != len(want) {
		t.Fatalf("cardinality %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("member %d = %d, want %d", i, got[i], want[i])
		}
	}
	if b.Count() != len(ref) {
		t.Errorf("Count = %d, want %d", b.Count(), len(ref))
	}
}

func TestSnapshotNewBitset(t *testing.T) {
	st := NewStore()
	st.Add("s", "p", "o")
	sn := st.Freeze()
	b := sn.NewBitset()
	for id := ID(0); int(id) < sn.NumTerms(); id++ {
		if !b.Set(id) {
			t.Fatalf("snapshot-sized bitset rejected in-range id %d", id)
		}
	}
}
