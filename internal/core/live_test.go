package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sparqlog/internal/lint"
	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// TestLiveMatchesBatch feeds a fixture log entry-by-entry through a
// LiveAnalyzer (serially, so entry indexes match log order) and checks
// the final Report deeply equals AnalyzeLog over the same entries, for
// every dedup mode, whether an entry arrives as text (Add) or as a
// served request (AddRequest). Mid-stream reports must be consistent
// prefixes. AddRequest must hand back what parsing the text gives, and
// in exact dedup, the same Request to the repeats of a text it has
// seen twice. It runs on four slots and on one, where a structural
// class's representative outlives many parses on its slot's parser
// (TestMain poisons a recycled tree).
func TestLiveMatchesBatch(t *testing.T) {
	for _, workers := range []int{4, 1} {
		testLiveMatchesBatch(t, workers)
	}
}

func testLiveMatchesBatch(t *testing.T, workers int) {
	optionSets := map[string]Options{
		"default":         {},
		"keep-duplicates": {KeepDuplicates: true},
		"skip-shapes":     {SkipShapes: true},
		"structural":      {StructuralDedup: true},
		"lint":            {Lint: true},
		"structural-lint": {StructuralDedup: true, Lint: true},
		// KeepDuplicates wins over StructuralDedup, as in AnalyzeLog.
		"keep-structural": {KeepDuplicates: true, StructuralDedup: true},
	}
	ds := loggen.Generate(loggen.Profiles()[0], 1200, 44)
	for label, opts := range optionSets {
		label = fmt.Sprintf("%s/%d slots", label, workers)
		want := AnalyzeLog(ds.Name, ds.Entries, opts)
		la := NewLiveAnalyzer(ds.Name, opts, workers)
		half := len(ds.Entries) / 2
		served := map[string]*Request{}
		shared := 0
		for i, e := range ds.Entries {
			if i == half {
				// A mid-stream snapshot must match the batch analysis of
				// the prefix — and must not disturb the live state.
				mid := la.Report()
				wantMid := AnalyzeLog(ds.Name, ds.Entries[:half], opts)
				if !reflect.DeepEqual(wantMid, mid) {
					t.Errorf("%s: mid-stream report differs from batch prefix", label)
					diffReports(t, wantMid, mid)
				}
			}
			// Entries go in as text, and (two in three) as a serving
			// endpoint hands a request over.
			if i%3 == 0 {
				la.Add(e)
				continue
			}
			r, err := la.AddRequest(e)
			q, perr := sparql.Parse(e)
			if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
				t.Fatalf("%s: AddRequest(%q) error %v, parse error %v", label, e, err, perr)
			}
			if err != nil {
				continue
			}
			if canon := sparql.QueryString(q); r.Canon != canon || sparql.QueryString(r.Query) != canon {
				t.Fatalf("%s: AddRequest(%q) canon %q, want %q", label, e, r.Canon, canon)
			}
			if !reflect.DeepEqual(r.Lint, lint.Run(r.Query)) || !reflect.DeepEqual(r.Lint.Diagnostics, lint.Run(q).Diagnostics) {
				t.Fatalf("%s: AddRequest(%q) lint differs from lint.Run", label, e)
			}
			if served[e] == r {
				shared++
			}
			served[e] = r
		}
		if la.Entries() != uint64(len(ds.Entries)) {
			t.Errorf("%s: entries = %d, want %d", label, la.Entries(), len(ds.Entries))
		}
		exact := !opts.KeepDuplicates && !opts.StructuralDedup
		if exact != (shared > 0) {
			t.Errorf("%s: %d requests served a prepared Request, want some only in exact dedup", label, shared)
		}
		got := la.Report()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: live report differs from batch", label)
			diffReports(t, want, got)
		}
		// A second report over unchanged state is identical (Report is
		// non-destructive).
		again := la.Report()
		if !reflect.DeepEqual(got, again) {
			t.Errorf("%s: repeated Report diverged", label)
		}
	}
}

// TestLivePreparesOnSecondSighting: a text seen once keeps no prepared
// Request (one-off texts hold only their dedup key); its second
// sighting's Request is kept, charged and served to the third.
func TestLivePreparesOnSecondSighting(t *testing.T) {
	la := NewLiveAnalyzer("prepare", Options{Lint: true}, 1)
	const q = "SELECT ?x WHERE { ?x <p> ?y }"
	first, err := la.AddRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	if served, bytes := la.Prepared(); served != 0 || bytes != 0 {
		t.Fatalf("after a first sighting: %d served prepared, %d B prepared", served, bytes)
	}
	second, _ := la.AddRequest(q)
	third, _ := la.AddRequest(q)
	served, bytes := la.Prepared()
	if second == first || third != second || served != 1 || bytes != preparedCost(second) {
		t.Fatalf("after three sightings: %d served prepared, %d B prepared (want 1, %d)", served, bytes, preparedCost(second))
	}
}

// TestLiveHashCollision makes every text share one dedup key. A
// colliding text is counted as a repeat of the text that holds the key
// (the study's miscount the collision bound covers), and is still
// answered from its own parse, never from the other text's prepared
// Request.
func TestLiveHashCollision(t *testing.T) {
	la := NewLiveAnalyzer("collide", Options{Lint: true}, 2)
	la.keyHook = func(textKey) textKey { return textKey{7, 7} }
	const a, b = "SELECT ?x WHERE { ?x <p> ?y }", "ASK { <s> <q> ?z }"
	qb, err := sparql.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	var prepared *Request
	for i := 0; i < 3; i++ {
		r, err := la.AddRequest(a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 && r != prepared {
			t.Fatal("the third sighting of a text is not served its prepared Request")
		}
		prepared = r
	}
	for i := 0; i < 3; i++ {
		r, err := la.AddRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		if r == prepared || r.Query.Type != sparql.AskQuery || r.Canon != sparql.QueryString(qb) {
			t.Fatalf("colliding text %q was answered with %q", b, r.Canon)
		}
	}
	if r, _ := la.AddRequest(a); r != prepared {
		t.Fatal("the colliding text displaced the prepared Request")
	}
	rep := la.Report()
	if rep.Total != 7 || rep.Valid != 7 || rep.Unique != 1 {
		t.Fatalf("total/valid/unique = %d/%d/%d, want 7/7/1", rep.Total, rep.Valid, rep.Unique)
	}
}

// feedConcurrently feeds the entries from eight goroutines, each taking
// every eighth entry, half of them through Add and half through
// AddRequest; Wait on the result for them to finish.
func feedConcurrently(la *LiveAnalyzer, entries []string) *sync.WaitGroup {
	var wg sync.WaitGroup
	const feeders = 8
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := f; i < len(entries); i += feeders {
				if f%2 == 0 {
					la.Add(entries[i])
				} else {
					la.AddRequest(entries[i])
				}
			}
		}()
	}
	return &wg
}

// TestLiveConcurrentAdds hammers Add and AddRequest from many
// goroutines (run under -race in CI) and checks the order-independent
// counters against the batch pipeline. Exact-text dedup is
// order-independent in full.
func TestLiveConcurrentAdds(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[2], 900, 7)
	want := AnalyzeLog(ds.Name, ds.Entries, Options{})
	la := NewLiveAnalyzer(ds.Name, Options{}, 4)
	wg := feedConcurrently(la, ds.Entries)
	done := make(chan struct{})
	go func() {
		// Snapshot concurrently with the feeders: must not race or
		// corrupt state (values themselves are timing-dependent).
		for i := 0; i < 20; i++ {
			_ = la.Report()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	got := la.Report()
	if !reflect.DeepEqual(want, got) {
		t.Error("concurrent live report differs from batch")
		diffReports(t, want, got)
	}
}

// TestLiveStructuralReportDuringAdds is TestLiveConcurrentAdds for
// structural dedup, whose Report analyzes the class representatives
// after releasing the slot locks: two reporters run against the feeders
// (under -race in CI), and every snapshot must be internally
// consistent. Which occurrence represents a class depends on arrival
// order, so the final report is checked on the counters that do not.
func TestLiveStructuralReportDuringAdds(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[2], 900, 7)
	opts := Options{StructuralDedup: true}
	want := AnalyzeLog(ds.Name, ds.Entries, opts)
	la := NewLiveAnalyzer(ds.Name, opts, 4)
	feeders := feedConcurrently(la, ds.Entries)
	var reporters sync.WaitGroup
	for r := 0; r < 2; r++ {
		reporters.Add(1)
		go func() {
			defer reporters.Done()
			lastTotal := 0
			for i := 0; i < 20; i++ {
				rep := la.Report()
				if rep.Unique > rep.Valid || rep.Valid > rep.Total || rep.Total < lastTotal {
					t.Errorf("inconsistent snapshot: total=%d (previous %d) valid=%d unique=%d",
						rep.Total, lastTotal, rep.Valid, rep.Unique)
				}
				lastTotal = rep.Total
			}
		}()
	}
	feeders.Wait()
	reporters.Wait()
	got := la.Report()
	if got.Total != want.Total || got.Valid != want.Valid || got.Unique != want.Unique ||
		got.NoiseRemoved != want.NoiseRemoved || !reflect.DeepEqual(got.Repeats, want.Repeats) {
		t.Errorf("counters differ from batch: got %d/%d/%d noise %d, want %d/%d/%d noise %d",
			got.Total, got.Valid, got.Unique, got.NoiseRemoved,
			want.Total, want.Valid, want.Unique, want.NoiseRemoved)
	}
}

// TestPreparedCostTracksHeap holds preparedCost, which preparedBudget
// is counted in, to within a quarter of the heap that prepared Requests
// of the distinct loggen corpus texts hold, overall and for the
// shortest and the longest quarter of the texts.
func TestPreparedCostTracksHeap(t *testing.T) {
	seen := map[string]bool{}
	var texts []string
	for _, p := range loggen.Profiles() {
		for _, e := range loggen.Generate(p, 1500, 1).Entries {
			if _, err := sparql.Parse(e); err == nil && !seen[e] {
				seen[e] = true
				texts = append(texts, e)
			}
		}
	}
	sort.Slice(texts, func(i, j int) bool { return len(texts[i]) < len(texts[j]) })
	n := len(texts)
	for _, part := range []struct {
		name  string
		texts []string
	}{{"all", texts}, {"shortest", texts[:n/4]}, {"longest", texts[3*n/4:]}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		reqs := make([]*Request, len(part.texts))
		for i, e := range part.texts {
			// The text is copied, as a request's is its own.
			e = strings.Clone(e)
			q, _ := sparql.Parse(e)
			reqs[i] = &Request{Query: q, Lint: lint.Run(q), Canon: sparql.QueryString(q), text: e}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		cost := 0
		for _, r := range reqs {
			cost += preparedCost(r)
		}
		heap := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(reqs))
		charged := float64(cost) / float64(len(reqs))
		t.Logf("%s: %d texts, heap %.0f B, charged %.0f B per prepared Request", part.name, len(reqs), heap, charged)
		if charged < 0.75*heap || charged > 1.25*heap {
			t.Errorf("%s: charged %.0f B per prepared Request for %.0f B of heap", part.name, charged, heap)
		}
		runtime.KeepAlive(reqs)
	}
}

// TestDedupHeapPerText holds the live heap that exact dedup keeps for
// each distinct valid text to at most 64 B (its key and repeat shape in
// one 24-byte slot at the table's load), read from runtime.MemStats
// after a GC as 20k to 300k distinct texts go in.
func TestDedupHeapPerText(t *testing.T) {
	if testing.Short() {
		t.Skip("300k entries")
	}
	text := func(i int) string { return "ASK { <s> <p> " + strconv.Itoa(i) + " }" }
	la := NewLiveAnalyzer("heap", Options{}, 1)
	la.Add(text(0))
	var base, ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	n := 1
	for _, want := range []int{20_000, 50_000, 100_000, 150_000, 300_000} {
		for ; n < want; n++ {
			la.Add(text(n))
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		per := float64(int64(ms.HeapAlloc)-int64(base.HeapAlloc)) / float64(n-1)
		t.Logf("%d distinct texts: %.1f B of live heap each", n, per)
		if per > 64 {
			t.Errorf("%d distinct texts hold %.1f B of live heap each, want at most 64", n, per)
		}
	}
	if rep := la.Report(); rep.Unique != n {
		t.Fatalf("unique = %d, want %d", rep.Unique, n)
	}
	runtime.KeepAlive(la)
}

// TestLiveHashesOnce counts the exact-dedup hashes: every entry, through
// Add or AddRequest, first sighting, second sighting, prepared repeat,
// noise or unparseable text, hashes its text exactly once.
func TestLiveHashesOnce(t *testing.T) {
	la := NewLiveAnalyzer("hash", Options{Lint: true}, 2)
	calls := 0
	la.keyHook = func(k textKey) textKey {
		calls++
		return k
	}
	const q, r = "SELECT ?x WHERE { ?x <p> ?y }", "ASK { <s> <q> ?z }"
	const noise, broken = "GET /favicon.ico", "SELECT ?x WHERE { ?x <p> "
	for i, in := range []struct {
		text   string
		served bool
	}{
		{q, true},  // first sighting, served
		{q, true},  // second sighting: its Request is prepared
		{q, true},  // served prepared
		{q, false}, // a repeat counted from Add
		{r, false}, // first sighting, from Add
		{r, true},  // second sighting, served
		{r, true},  // served prepared
		// Noise and unparseable texts, twice each way.
		{noise, false},
		{noise, true},
		{noise, false},
		{noise, true},
		{broken, true},
		{broken, false},
		{broken, true},
		{broken, false},
	} {
		if in.served {
			la.AddRequest(in.text)
		} else {
			la.Add(in.text)
		}
		if calls != i+1 {
			t.Fatalf("entry %d (%q, served %v): %d hashes in all, want %d", i, in.text, in.served, calls, i+1)
		}
	}
	if served, _ := la.Prepared(); served != 2 {
		t.Errorf("%d entries served prepared, want 2", served)
	}
	rep := la.Report()
	if rep.NoiseRemoved != 4 || rep.Total != 11 || rep.Valid != 7 || rep.Unique != 2 {
		t.Errorf("noise/total/valid/unique = %d/%d/%d/%d, want 4/11/7/2", rep.NoiseRemoved, rep.Total, rep.Valid, rep.Unique)
	}
}

// TestLiveClaimRelease feeds a log whose noise and unparseable texts
// repeat from eight goroutines, through Add and AddRequest (under -race
// in CI). A claim on an invalid text is released, so afterwards the
// exact-dedup table holds exactly the distinct valid texts, each with
// its repeat shape recorded, and the report equals the batch pipeline's.
func TestLiveClaimRelease(t *testing.T) {
	entries := loggen.Generate(loggen.Profiles()[2], 600, 11).Entries
	invalid := []string{"GET /favicon.ico", "SELECT ?x WHERE { ?x <p> ", "ASK {", "robots.txt"}
	var log []string
	for i, e := range entries {
		log = append(log, e, invalid[i%len(invalid)])
	}
	valid := map[string]bool{}
	for _, e := range log {
		if _, err := sparql.Parse(e); err == nil && looksLikeQuery(e) {
			valid[e] = true
		}
	}
	la := NewLiveAnalyzer("release", Options{}, 4)
	feedConcurrently(la, log).Wait()
	held := 0
	for i := range la.shards {
		for _, st := range la.shards[i].seen.slots {
			if !st.full {
				continue
			}
			if st.shape == 0 {
				t.Error("a claim was never settled")
			}
			held++
		}
	}
	if held != len(valid) {
		t.Errorf("the table holds %d texts, want the %d distinct valid ones", held, len(valid))
	}
	if want, got := AnalyzeLog("release", log, Options{}), la.Report(); !reflect.DeepEqual(want, got) {
		t.Error("live report differs from batch")
		diffReports(t, want, got)
	}
}
