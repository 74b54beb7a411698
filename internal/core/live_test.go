package core

import (
	"reflect"
	"sync"
	"testing"

	"sparqlog/internal/lint"
	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// TestLiveMatchesBatch feeds a fixture log entry-by-entry through a
// LiveAnalyzer (serially, so entry indexes match log order) and checks
// the final Report deeply equals AnalyzeLog over the same entries, for
// every dedup mode, whether an entry arrives as text (Add) or already
// parsed (AddParsed). Mid-stream reports must be consistent prefixes.
func TestLiveMatchesBatch(t *testing.T) {
	optionSets := map[string]Options{
		"default":         {},
		"keep-duplicates": {KeepDuplicates: true},
		"skip-shapes":     {SkipShapes: true},
		"structural":      {StructuralDedup: true},
		"lint":            {Lint: true},
		"structural-lint": {StructuralDedup: true, Lint: true},
	}
	ds := loggen.Generate(loggen.Profiles()[0], 1200, 44)
	for label, opts := range optionSets {
		want := AnalyzeLog(ds.Name, ds.Entries, opts)
		la := NewLiveAnalyzer(ds.Name, opts, 4)
		half := len(ds.Entries) / 2
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
			// Both entries into process: as text, and as a serving
			// endpoint hands a request over, parsed and (every other
			// time) linted already.
			if i%2 == 0 {
				la.Add(e)
				continue
			}
			q, err := sparql.Parse(e)
			var lr *lint.Result
			if err == nil && i%4 == 1 {
				lr = lint.Run(q)
			}
			la.AddParsed(e, q, err, lr)
		}
		if la.Entries() != uint64(len(ds.Entries)) {
			t.Errorf("%s: entries = %d, want %d", label, la.Entries(), len(ds.Entries))
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

// feedConcurrently Adds the entries from eight goroutines, each taking
// every eighth entry; Wait on the result for them to finish.
func feedConcurrently(la *LiveAnalyzer, entries []string) *sync.WaitGroup {
	var wg sync.WaitGroup
	const feeders = 8
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := f; i < len(entries); i += feeders {
				la.Add(entries[i])
			}
		}()
	}
	return &wg
}

// TestLiveConcurrentAdds hammers Add from many goroutines (run under
// -race in CI) and checks the order-independent counters against the
// batch pipeline. Exact-text dedup is order-independent in full.
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
