package qcache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sparqlog/internal/exec"
	"sparqlog/internal/rdf"
)

func testSnapshot(t *testing.T) *rdf.Snapshot {
	t.Helper()
	st := rdf.NewStore()
	for i := 0; i < 8; i++ {
		st.Add(fmt.Sprintf("<http://g/s%d>", i), "<http://g/p>", fmt.Sprintf("<http://g/o%d>", i))
	}
	return st.Freeze()
}

func TestRoundTripFidelity(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1})
	cases := []struct {
		name string
		r    Result
	}{
		{"dictionary terms", Result{
			Vars: []string{"s", "o"},
			Rows: [][]string{
				{"<http://g/s0>", "<http://g/o0>"},
				{"<http://g/s1>", "<http://g/o1>"},
			},
		}},
		{"overflow terms", Result{
			Vars: []string{"x"},
			Rows: [][]string{{`"42"^^<http://www.w3.org/2001/XMLSchema#integer>`}, {"<http://g/s2>"}},
		}},
		{"unbound cells", Result{
			Vars: []string{"a", "b"},
			Rows: [][]string{{"<http://g/s0>", ""}, {"", "<http://g/o1>"}},
		}},
		{"empty select", Result{Vars: []string{"s"}, Rows: [][]string{}}},
		{"ask true", Result{Bool: true}},
		{"ask false", Result{Bool: false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := "k:" + tc.name
			if !c.Put(sn, key, tc.r, time.Second) {
				t.Fatal("Put refused")
			}
			got, ok := c.Get(sn, key)
			if !ok {
				t.Fatal("Get missed a resident entry")
			}
			if got.Rows != nil {
				t.Fatal("Get materialized rows")
			}
			back := Result{Vars: got.Vars, Rows: got.Answer.Rows(sn), Bool: got.Bool}
			if !reflect.DeepEqual(back, tc.r) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", back, tc.r)
			}
			// Entries are shared, not copied: every hit hands out the
			// one answer, and its row form is fresh each time.
			again, _ := c.Get(sn, key)
			if again.Answer != got.Answer {
				t.Fatal("two hits returned different answers for one entry")
			}
			if len(back.Rows) > 0 && len(back.Rows[0]) > 0 {
				back.Rows[0][0] = "mutated"
				if again.Answer.Rows(sn)[0][0] == "mutated" {
					t.Fatal("materialized rows alias the entry")
				}
			}
		})
	}
}

// bigAnswer is a two-column answer of n rows over dictionary terms.
func bigAnswer(sn *rdf.Snapshot, n int) *exec.Answer {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("<http://g/s%d>", i%8), fmt.Sprintf("<http://g/o%d>", i%8)}
	}
	return exec.NewAnswer(sn, []string{"s", "o"}, rows, false)
}

// TestFillRetainsAndHitShares pins what "an entry is the answer" buys:
// Put of a columnar answer keeps the pointer (no conversion, so no
// dictionary lookup and no per-cell work: its allocations do not depend
// on the row count), and Get returns that pointer (likewise).
func TestFillRetainsAndHitShares(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1, MaxBytes: 64 << 20})
	var allocs [2][2]float64
	for i, n := range []int{10, 10000} {
		ans := bigAnswer(sn, n)
		key := fmt.Sprintf("k%d", n)
		if !c.Put(sn, key, Result{Answer: ans}, time.Second) {
			t.Fatalf("Put of %d rows refused", n)
		}
		got, ok := c.Get(sn, key)
		if !ok || got.Answer != ans {
			t.Fatalf("%d rows: fill did not retain the answer it was given", n)
		}
		// One fresh key per measured fill (and the warm-up call), made
		// up front so the measurement holds Put's allocations only.
		keys := make([]string, 51)
		for k := range keys {
			keys[k] = fmt.Sprintf("fill-%05d-%02d", n, k)
		}
		allocs[i][0] = testing.AllocsPerRun(len(keys)-1, func() {
			c.Put(sn, keys[0], Result{Answer: ans}, time.Second)
			keys = keys[1:]
		})
		allocs[i][1] = testing.AllocsPerRun(50, func() { c.Get(sn, key) })
	}
	if allocs[0][0] != allocs[1][0] {
		t.Fatalf("Put allocations grow with rows: %v for 10, %v for 10000", allocs[0][0], allocs[1][0])
	}
	if allocs[0][1] != 0 || allocs[1][1] != 0 {
		t.Fatalf("Get allocates: %v for 10 rows, %v for 10000", allocs[0][1], allocs[1][1])
	}
}

func TestSnapshotMismatchDegrades(t *testing.T) {
	sn := testSnapshot(t)
	other := testSnapshot(t)
	c := New(sn, Options{MinCost: -1})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	if c.Put(other, "k", r, time.Second) {
		t.Fatal("Put accepted a foreign snapshot")
	}
	if !c.Put(sn, "k", r, time.Second) {
		t.Fatal("Put refused own snapshot")
	}
	if _, ok := c.Get(other, "k"); ok {
		t.Fatal("Get answered for a foreign snapshot")
	}
	if _, ok := c.Get(sn, "k"); !ok {
		t.Fatal("Get missed own snapshot")
	}
}

// TestCostAwareAdmission: a result below MinCost is never stored, however
// often its key is seen; one above it is stored on its second sighting.
func TestCostAwareAdmission(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: time.Millisecond})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	for i := 0; i < 2; i++ {
		if c.Put(sn, "cheap", r, 100*time.Microsecond) {
			t.Fatal("admitted a result below MinCost")
		}
	}
	if c.Rejected() != 2 || c.FirstSightings() != 0 {
		t.Fatalf("Rejected = %d, FirstSightings = %d; want 2, 0", c.Rejected(), c.FirstSightings())
	}
	if c.Put(sn, "heavy", r, 2*time.Millisecond) {
		t.Fatal("admitted a result above MinCost on its first sighting")
	}
	if !c.Put(sn, "heavy", r, 2*time.Millisecond) {
		t.Fatal("refused a result above MinCost on its second sighting")
	}
	if _, ok := c.Get(sn, "cheap"); ok {
		t.Fatal("cheap result resident")
	}
	if _, ok := c.Get(sn, "heavy"); !ok {
		t.Fatal("heavy result not resident")
	}
}

// TestSecondSightingAdmission pins the doorkeeper at the deployed rule:
// a key's first Put is refused and counted, its second is admitted.
func TestSecondSightingAdmission(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	if c.Put(sn, "k", r, time.Second) {
		t.Fatal("first Put admitted")
	}
	if c.FirstSightings() != 1 || c.Rejected() != 0 || c.Entries() != 0 || c.Bytes() != 0 {
		t.Fatalf("after first Put: sightings %d, rejected %d, entries %d, bytes %d; want 1, 0, 0, 0",
			c.FirstSightings(), c.Rejected(), c.Entries(), c.Bytes())
	}
	if !c.Put(sn, "k", r, time.Second) {
		t.Fatal("second Put refused")
	}
	if _, ok := c.Get(sn, "k"); !ok || c.FirstSightings() != 1 {
		t.Fatalf("second Put: resident %v, sightings %d", ok, c.FirstSightings())
	}
	// A different key is a sighting of its own.
	if c.Put(sn, "other", r, time.Second) || c.FirstSightings() != 2 {
		t.Fatalf("another key's first Put: sightings %d, want 2", c.FirstSightings())
	}
}

// TestRefusedResultsLeaveNoSighting: a result the cost floor or the
// entry cap refuses does not count as a sighting, so the key's next
// admissible result is still its first.
func TestRefusedResultsLeaveNoSighting(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: time.Millisecond, MaxEntryBytes: 300})
	small := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	big := Result{Vars: []string{"x"}}
	for i := 0; i < 100; i++ {
		big.Rows = append(big.Rows, []string{fmt.Sprintf("\"novel-term-%d\"", i)})
	}
	if c.Put(sn, "k", small, time.Microsecond) || c.Put(sn, "k", big, time.Second) {
		t.Fatal("admitted a result below the floor or over the cap")
	}
	if c.Rejected() != 2 || c.FirstSightings() != 0 {
		t.Fatalf("Rejected = %d, FirstSightings = %d; want 2, 0", c.Rejected(), c.FirstSightings())
	}
	if c.Put(sn, "k", small, time.Second) {
		t.Fatal("admitted after refusals only: they counted as a sighting")
	}
	if !c.Put(sn, "k", small, time.Second) {
		t.Fatal("second admissible Put refused")
	}
}

// TestEvictedKeyReadmitted: the doorkeeper outlives the entry, so a key
// evicted by the byte budget is stored again on its next Put.
func TestEvictedKeyReadmitted(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{Shards: 1, MaxBytes: 1100, MaxEntryBytes: 1 << 20})
	row := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	put2 := func(key string) {
		t.Helper()
		c.Put(sn, key, row, time.Second)
		if !c.Put(sn, key, row, time.Second) {
			t.Fatalf("second Put of %s refused", key)
		}
	}
	for i := 0; i < 6; i++ {
		put2(fmt.Sprintf("k%d", i))
	}
	if _, ok := c.Get(sn, "k0"); ok || c.Evictions() == 0 {
		t.Fatal("k0 was not evicted")
	}
	sightings := c.FirstSightings()
	if !c.Put(sn, "k0", row, time.Second) {
		t.Fatal("evicted key not re-admitted on its next Put")
	}
	if c.FirstSightings() != sightings {
		t.Fatal("re-admission counted a first sighting")
	}
}

// TestNegativeMinCostAdmitsFirstFill: MinCost < 0 bypasses the floor and
// the doorkeeper alike.
func TestNegativeMinCostAdmitsFirstFill(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	if !c.Put(sn, "k", r, 0) {
		t.Fatal("first Put refused under MinCost -1")
	}
	if c.FirstSightings() != 0 {
		t.Fatalf("FirstSightings = %d, want 0", c.FirstSightings())
	}
}

// TestConcurrentPutsOneEntry: 32 goroutines Put one key at the deployed
// rule; one Put is the first sighting, and exactly one entry results.
func TestConcurrentPutsOneEntry(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	r.Answer = exec.NewAnswer(sn, r.Vars, r.Rows, r.Bool)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Put(sn, "k", r, time.Second)
		}()
	}
	wg.Wait()
	if c.Entries() != 1 || c.FirstSightings() != 1 {
		t.Fatalf("entries %d, sightings %d; want 1, 1", c.Entries(), c.FirstSightings())
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	sn := testSnapshot(t)
	// One shard so the LRU order is global; budget fits ~4 small entries.
	c := New(sn, Options{MinCost: -1, Shards: 1, MaxBytes: 1100, MaxEntryBytes: 1 << 20})
	row := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	for i := 0; i < 6; i++ {
		if !c.Put(sn, fmt.Sprintf("k%d", i), row, time.Second) {
			t.Fatalf("Put k%d refused", i)
		}
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions under a budget that cannot hold all entries")
	}
	if c.Bytes() > 1100 {
		t.Fatalf("Bytes() = %d exceeds budget", c.Bytes())
	}
	// The most recent key must have survived; the oldest must be gone.
	if _, ok := c.Get(sn, "k5"); !ok {
		t.Fatal("most recent entry was evicted")
	}
	if _, ok := c.Get(sn, "k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

func TestLRUTouchOnGet(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1, Shards: 1, MaxBytes: 1200, MaxEntryBytes: 1 << 20})
	row := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	for i := 0; i < 3; i++ {
		c.Put(sn, fmt.Sprintf("k%d", i), row, time.Second)
	}
	// Touch k0 so k1 becomes the eviction candidate.
	if _, ok := c.Get(sn, "k0"); !ok {
		t.Skip("budget too small for three entries; eviction already ran")
	}
	for i := 3; i < 6; i++ {
		c.Put(sn, fmt.Sprintf("k%d", i), row, time.Second)
	}
	if _, ok := c.Get(sn, "k1"); ok {
		t.Fatal("LRU candidate k1 survived while touched k0 should outlive it")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1, MaxEntryBytes: 300})
	big := Result{Vars: []string{"x"}}
	for i := 0; i < 100; i++ {
		big.Rows = append(big.Rows, []string{fmt.Sprintf("\"novel-term-%d\"", i)})
	}
	if c.Put(sn, "big", big, time.Second) {
		t.Fatal("admitted an entry above MaxEntryBytes")
	}
	if c.Rejected() == 0 {
		t.Fatal("oversize rejection not counted")
	}
}

func TestBodies(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	if _, ok := c.SetBody("absent", "application/json", []byte("{}")); ok {
		t.Fatal("SetBody succeeded for a non-resident key")
	}
	c.Put(sn, "k", r, time.Second)
	body := []byte(`{"results":1}`)
	etag, ok := c.SetBody("k", "application/json", body)
	if !ok || etag == "" {
		t.Fatalf("SetBody = %q, %v", etag, ok)
	}
	got, tag, ok := c.Body("k", "application/json")
	if !ok || tag != etag || string(got) != string(body) {
		t.Fatalf("Body = %q, %q, %v", got, tag, ok)
	}
	if _, _, ok := c.Body("k", "text/csv"); ok {
		t.Fatal("Body answered an unset content type")
	}
	// Same content type again: idempotent, keeps the first tag.
	tag2, ok := c.SetBody("k", "application/json", []byte("other"))
	if !ok || tag2 != etag {
		t.Fatalf("second SetBody = %q, want %q", tag2, etag)
	}
	if c.BodyHits() != 1 {
		t.Fatalf("BodyHits = %d, want 1", c.BodyHits())
	}
}

func TestSetBodyGrowthCannotEvictOwnEntry(t *testing.T) {
	sn := testSnapshot(t)
	c := New(sn, Options{MinCost: -1, Shards: 1, MaxBytes: 900, MaxEntryBytes: 860})
	r := Result{Vars: []string{"s"}, Rows: [][]string{{"<http://g/s0>"}}}
	c.Put(sn, "a", r, time.Second)
	c.Put(sn, "b", r, time.Second)
	// Growing a must evict b, never a itself.
	if _, ok := c.SetBody("a", "application/json", make([]byte, 400)); !ok {
		t.Fatal("SetBody refused although evicting b frees room")
	}
	if _, _, ok := c.Body("a", "application/json"); !ok {
		t.Fatal("grown entry lost its body")
	}
	if c.Bytes() > 900 {
		t.Fatalf("Bytes() = %d exceeds budget after growth", c.Bytes())
	}
}
