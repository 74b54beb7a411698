package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparqlog/internal/loggen"
)

// fixtureLogs are the generated logs the stream-vs-batch consistency
// suite runs over: three profiles with different noise/duplication mixes.
func fixtureLogs() []loggen.Dataset {
	return []loggen.Dataset{
		loggen.Generate(loggen.Profiles()[0], 1500, 44),
		loggen.Generate(loggen.Profiles()[2], 900, 7),
		loggen.Generate(loggen.Profiles()[5], 600, 99),
	}
}

// TestStreamMatchesBatch is the differential test: on every fixture log
// and option set, StreamAnalyzer must produce a DatasetReport deeply
// equal to AnalyzeLog's.
func TestStreamMatchesBatch(t *testing.T) {
	optionSets := map[string]Options{
		"default":         {},
		"keep-duplicates": {KeepDuplicates: true},
		"skip-shapes":     {SkipShapes: true},
		"structural":      {StructuralDedup: true},
	}
	for _, ds := range fixtureLogs() {
		for label, opts := range optionSets {
			seq := AnalyzeLog(ds.Name, ds.Entries, opts)
			sa := &StreamAnalyzer{Opts: opts, Workers: 4}
			str := sa.AnalyzeSeq(ds.Name, slices.Values(ds.Entries))
			if !reflect.DeepEqual(seq, str) {
				t.Errorf("%s/%s: stream report differs from sequential", ds.Name, label)
				diffReports(t, seq, str)
			}
		}
	}
}

// diffReports narrows a DeepEqual failure to the offending fields.
func diffReports(t *testing.T, want, got *DatasetReport) {
	t.Helper()
	w, g := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Logf("  field %s: want %+v, got %+v",
				w.Type().Field(i).Name, w.Field(i).Interface(), g.Field(i).Interface())
		}
	}
}

// TestStreamReader verifies the io.Reader entry point: streaming a log
// rendered as a file must equal analyzing its in-memory entries.
func TestStreamReader(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[1], 500, 3)
	sa := &StreamAnalyzer{Workers: 3}
	fromSlice := sa.AnalyzeSeq(ds.Name, slices.Values(ds.Entries))
	fromReader, err := sa.AnalyzeReader(ds.Name, strings.NewReader(strings.Join(ds.Entries, "\n")+"\n"), FormatPlain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSlice, fromReader) {
		t.Error("reader-fed stream differs from slice-fed stream")
		diffReports(t, fromSlice, fromReader)
	}
}

// TestStreamCrossesChunks runs a log longer than workers × chunkSize, so
// every worker takes several chunks and duplicates of one entry land in
// different chunks on different workers. Shapes are skipped for time:
// they see one query at a time, whatever the chunking.
func TestStreamCrossesChunks(t *testing.T) {
	const workers = 2
	ds := loggen.Generate(loggen.Profiles()[0], 2*workers*chunkSize+chunkSize/2, 12)
	for label, opts := range map[string]Options{
		"default":    {SkipShapes: true},
		"structural": {SkipShapes: true, StructuralDedup: true},
	} {
		want := AnalyzeLog(ds.Name, ds.Entries, opts)
		got := (&StreamAnalyzer{Opts: opts, Workers: workers}).AnalyzeSeq(ds.Name, slices.Values(ds.Entries))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: report differs", label)
			diffReports(t, want, got)
		}
	}
}

// TestStreamEdgeCases covers degenerate pool sizes and inputs.
func TestStreamEdgeCases(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[0], 300, 12)
	want := AnalyzeLog(ds.Name, ds.Entries, Options{})
	for _, workers := range []int{1, 8} {
		got := (&StreamAnalyzer{Workers: workers}).AnalyzeSeq(ds.Name, slices.Values(ds.Entries))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: report differs", workers)
			diffReports(t, want, got)
		}
	}

	empty := (&StreamAnalyzer{}).AnalyzeSeq("empty", slices.Values([]string(nil)))
	if empty.Total != 0 || empty.Unique != 0 || empty.NoiseRemoved != 0 {
		t.Errorf("empty stream: got %d/%d/%d, want zeros", empty.Total, empty.Unique, empty.NoiseRemoved)
	}

	noise := (&StreamAnalyzer{Workers: 2}).AnalyzeSeq("noise",
		slices.Values([]string{"GET /robots.txt", "200 OK", "not a query"}))
	if noise.NoiseRemoved != 3 || noise.Total != 0 {
		t.Errorf("noise-only stream: NoiseRemoved=%d Total=%d", noise.NoiseRemoved, noise.Total)
	}
}

// TestStreamStructuralRepresentative pins the structural-dedup
// representative choice: prefixed and expanded forms of the same query
// are fingerprint-equal but can analyze differently (shape analysis sees
// the original terms), so the stream must analyze the class's first
// occurrence in log order, exactly like AnalyzeLog — regardless of which
// worker reaches it first. A chunk of noise between the two forms puts
// them in different chunks, so two workers race to them.
func TestStreamStructuralRepresentative(t *testing.T) {
	prefixed := "PREFIX ex: <http://e/> SELECT ?x WHERE { <http://e/p> <http://e/q> ?x . ex:p <http://e/q2> ?x }"
	expanded := "SELECT ?x WHERE { <http://e/p> <http://e/q> ?x . <http://e/p> <http://e/q2> ?x }"
	opts := Options{StructuralDedup: true}
	for _, pair := range [][2]string{
		{prefixed, expanded},
		{expanded, prefixed},
	} {
		entries := append([]string{pair[0]}, slices.Repeat([]string{"GET /robots.txt"}, chunkSize)...)
		entries = append(entries, pair[1])
		want := AnalyzeLog("fp", entries, opts)
		if want.Unique != 1 {
			t.Fatalf("fixture not fingerprint-equal: unique = %d", want.Unique)
		}
		sa := &StreamAnalyzer{Opts: opts, Workers: 4}
		for trial := 0; trial < 20; trial++ {
			got := sa.AnalyzeSeq("fp", slices.Values(entries))
			if !reflect.DeepEqual(want, got) {
				t.Errorf("trial %d, order %q: stream analyzed the wrong representative", trial, entries[0])
				diffReports(t, want, got)
				break
			}
		}
	}
}

// TestMergeEmpty: merging an empty report is the identity; merging into
// an empty report copies.
func TestMergeEmpty(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[0], 400, 21)
	rep := AnalyzeLog(ds.Name, ds.Entries, Options{})
	want := AnalyzeLog(ds.Name, ds.Entries, Options{})

	rep.Merge(NewCorpusReport(ds.Name))
	if !reflect.DeepEqual(want, rep) {
		t.Error("merging an empty report changed the target")
		diffReports(t, want, rep)
	}

	into := NewCorpusReport(ds.Name)
	into.Merge(rep)
	if !reflect.DeepEqual(want, into) {
		t.Error("merging into an empty report is not a copy")
		diffReports(t, want, into)
	}
}

// TestMergeDisjointShards: analyzing disjoint halves of a log separately
// and merging must equal one pass, as long as no duplicate pair is split
// across the halves (KeepDuplicates removes that coupling entirely).
func TestMergeDisjointShards(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[2], 800, 5)
	mid := len(ds.Entries) / 2
	opts := Options{KeepDuplicates: true}
	want := AnalyzeLog(ds.Name, ds.Entries, opts)

	merged := NewCorpusReport(ds.Name)
	merged.Merge(AnalyzeLog(ds.Name, ds.Entries[:mid], opts))
	merged.Merge(AnalyzeLog(ds.Name, ds.Entries[mid:], opts))
	if !reflect.DeepEqual(want, merged) {
		t.Error("merge of disjoint halves differs from one pass")
		diffReports(t, want, merged)
	}
}

// TestMergeOverlappingShards: merging two reports over overlapping entry
// sets adds every additive aggregate (Merge is corpus aggregation, not
// set union) and takes maxima where the report tracks maxima.
func TestMergeOverlappingShards(t *testing.T) {
	ds := loggen.Generate(loggen.Profiles()[0], 500, 31)
	a := AnalyzeLog("a", ds.Entries[:400], Options{})
	b := AnalyzeLog("b", ds.Entries[200:], Options{})

	merged := NewCorpusReport("ab")
	merged.Merge(a)
	merged.Merge(b)

	if merged.Total != a.Total+b.Total || merged.Unique != a.Unique+b.Unique {
		t.Errorf("overlap merge: Total=%d Unique=%d, want %d and %d",
			merged.Total, merged.Unique, a.Total+b.Total, a.Unique+b.Unique)
	}
	if merged.OperatorSet.Total != a.OperatorSet.Total+b.OperatorSet.Total {
		t.Error("operator distribution totals must add")
	}
	for k := range a.Keywords {
		if merged.Keywords[k] != a.Keywords[k]+b.Keywords[k] {
			t.Errorf("keyword %q: %d, want %d", k, merged.Keywords[k], a.Keywords[k]+b.Keywords[k])
		}
	}
	if merged.Paths.Total != a.Paths.Total+b.Paths.Total {
		t.Error("path table totals must add")
	}
	wantMax := a.MaxDecompNodes
	if b.MaxDecompNodes > wantMax {
		wantMax = b.MaxDecompNodes
	}
	if merged.MaxDecompNodes != wantMax {
		t.Errorf("MaxDecompNodes=%d, want max %d", merged.MaxDecompNodes, wantMax)
	}
}
