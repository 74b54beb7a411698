package core

import (
	"fmt"
	"net/url"
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

// diffReports narrows a DeepEqual failure to the offending fields (an
// unexported one by its printed form, which is all reflect lends it).
func diffReports(t *testing.T, want, got *DatasetReport) {
	t.Helper()
	w, g := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < w.NumField(); i++ {
		wf, gf := w.Field(i), g.Field(i)
		if wf.CanInterface() && reflect.DeepEqual(wf.Interface(), gf.Interface()) ||
			!wf.CanInterface() && fmt.Sprintf("%+v", wf) == fmt.Sprintf("%+v", gf) {
			continue
		}
		t.Logf("  field %s: want %+v, got %+v", w.Type().Field(i).Name, wf, gf)
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
// them in different chunks, so two workers race to them. Led by a
// chunk's worth of noise less one, the first form is the last entry of
// its chunk and the second the first of its own, so a chunk that lost
// its base would elect the second.
func TestStreamStructuralRepresentative(t *testing.T) {
	prefixed := "PREFIX ex: <http://e/> SELECT ?x WHERE { <http://e/p> <http://e/q> ?x . ex:p <http://e/q2> ?x }"
	expanded := "SELECT ?x WHERE { <http://e/p> <http://e/q> ?x . <http://e/p> <http://e/q2> ?x }"
	opts := Options{StructuralDedup: true}
	noise := "GET /robots.txt"
	for _, c := range []struct {
		pair [2]string
		lead int
	}{
		{[2]string{prefixed, expanded}, 0},
		{[2]string{expanded, prefixed}, 0},
		{[2]string{prefixed, expanded}, chunkSize - 1},
		{[2]string{expanded, prefixed}, chunkSize - 1},
	} {
		pair := c.pair
		entries := append(slices.Repeat([]string{noise}, c.lead), pair[0])
		entries = append(entries, slices.Repeat([]string{noise}, chunkSize)...)
		entries = append(entries, pair[1])
		want := AnalyzeLog("fp", entries, opts)
		if want.Unique != 1 {
			t.Fatalf("fixture not fingerprint-equal: unique = %d", want.Unique)
		}
		sa := &StreamAnalyzer{Opts: opts, Workers: 4}
		for trial := 0; trial < 20; trial++ {
			got := sa.AnalyzeSeq("fp", slices.Values(entries))
			if !reflect.DeepEqual(want, got) {
				t.Errorf("trial %d, lead %d, order %q: stream analyzed the wrong representative", trial, c.lead, pair[0])
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

// intakeLog renders a log for AnalyzeReader that spans many chunk
// buffers and holds every kind of line the intake must treat as
// ReadLog does: Apache request lines (percent-encoded queries, a
// malformed escape, no query= at all), CRLF endings, blank and
// whitespace-only lines, Unicode-space padding, noise, unparseable
// texts, repeats in other chunks, and a query longer than chunkBytes,
// twice. Most of its bytes are long lines that are cheap to analyze:
// noise, and a few queries with a long literal, each repeated.
func intakeLog() string {
	ds := loggen.Generate(loggen.Profiles()[0], 2500, 47)
	// Filler bytes that start no keyword keep the noise scan fast.
	literal := func(n, i int) string { return strings.Repeat(string(rune('0'+i%10)), n) + "x" }
	long := `SELECT * WHERE { ?s <urn:p> "` + literal(chunkBytes, 0) + `" }`
	var b strings.Builder
	for i, e := range ds.Entries {
		switch {
		case i%7 == 0:
			fmt.Fprintf(&b, "127.0.0.1 - - [12/Jun/2015:10:00:00 +0000] \"GET /sparql?query=%s&format=json HTTP/1.1\" 200 1234\n", url.QueryEscape(e))
		case i%11 == 0:
			b.WriteString("\u00a0 " + e + "\u2003\u3000\n")
		case i%13 == 0:
			b.WriteString(e + "\r\n")
		default:
			b.WriteString(e + "\n")
		}
		switch i % 97 {
		case 0:
			b.WriteString("\n \t \n\u3000\u2003\r\n")
		case 1:
			b.WriteString("GET /robots.txt HTTP/1.1\nSELECT ?x WHERE { ?x <p> \nPOST /sparql HTTP/1.1 400\n#select\n")
		case 2:
			b.WriteString("\"GET /sparql?query=SELECT%zz+*+%7B%7D HTTP/1.1\" 200 1\n\"GET /sparql?query=&x=1 HTTP/1.1\"\n")
		}
		switch {
		case i%2 == 0:
			fmt.Fprintf(&b, "GET /resource/%s HTTP/1.1\n", literal(7000, i))
		case i%10 == 1:
			fmt.Fprintf(&b, "ASK { ?s <urn:p> \"%s\" }\n", literal(2000, i/10))
		}
		if i == 100 || i == 2000 {
			b.WriteString(long + "\n")
		}
	}
	return b.String()
}

// TestStreamReaderMatchesReadLog holds AnalyzeReader, which decodes
// lines into recycled chunk buffers, to AnalyzeLog over ReadLog's
// strings, in every format, pool size and dedup mode. The log is more
// than twice the bytes of all the chunk buffers a pool of 1 keeps, so
// each of them is reused more than once.
func TestStreamReaderMatchesReadLog(t *testing.T) {
	log := intakeLog()
	if len(log) < 2*(1+1)*chunkBytes {
		t.Fatalf("the log is %d bytes, too short to recycle every buffer twice", len(log))
	}
	modes := map[string]Options{
		"exact":           {SkipShapes: true},
		"structural":      {SkipShapes: true, StructuralDedup: true},
		"keep-duplicates": {SkipShapes: true, KeepDuplicates: true},
		"keep+structural": {SkipShapes: true, KeepDuplicates: true, StructuralDedup: true},
	}
	for _, format := range []LogFormat{FormatPlain, FormatApache} {
		entries, err := ReadLog(strings.NewReader(log), format)
		if err != nil {
			t.Fatal(err)
		}
		for label, opts := range modes {
			want := AnalyzeLog("intake", entries, opts)
			for _, workers := range []int{1, 4} {
				got, err := (&StreamAnalyzer{Opts: opts, Workers: workers}).AnalyzeReader("intake", strings.NewReader(log), format)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("format %d, %s, %d workers: AnalyzeReader differs from AnalyzeLog(ReadLog)", format, label, workers)
					diffReports(t, want, got)
				}
			}
		}
	}
}

// TestStreamRepeatAllocs: in pull mode, a repeat of a recorded text is
// hashed from the chunk's bytes and counted, and allocates nothing.
func TestStreamRepeatAllocs(t *testing.T) {
	const q = "SELECT ?x WHERE { ?x <p> ?y }"
	la := NewLiveAnalyzer("allocs", Options{}, 1)
	la.Add(q)
	b, slot := []byte(q), &la.slots[0]
	if got := testing.AllocsPerRun(100, func() {
		e := la.claimBytes(b)
		la.process(slot, &e, 1)
	}); got != 0 {
		t.Errorf("a pull-mode repeat allocates %v times, want 0", got)
	}
	if rep := la.Report(); rep.Valid < 100 || rep.Unique != 1 {
		t.Errorf("valid/unique = %d/%d, want the repeats counted against one text", rep.Valid, rep.Unique)
	}
}

// TestStreamAllocs pins what the study allocates per log entry, on one
// worker over a 6,000-entry log of BenchmarkStreamAnalyze's profile and
// seed: at most 5 (3.3 measured). The slot's parser takes its nodes from
// recycled slabs and numbers variables as it reads them, the slot
// reuses its Scope, an operator-set key is a table read and a
// classified shape report stays on the stack; a parser that allocated
// every node made 12.8.
func TestStreamAllocs(t *testing.T) {
	unpoisoned(t)
	ds := loggen.Generate(loggen.Profiles()[0], 6000, 2017)
	sa := &StreamAnalyzer{Workers: 1}
	n := testing.AllocsPerRun(2, func() { sa.AnalyzeSeq(ds.Name, slices.Values(ds.Entries)) })
	if per := n / float64(len(ds.Entries)); per > 5 {
		t.Errorf("the stream allocates %.2f times per entry, want at most 5", per)
	}
}

// TestTextKeyOfBytes: a text has one key whether it is held as a string
// (Add, AddRequest) or as bytes (the stream's chunks).
func TestTextKeyOfBytes(t *testing.T) {
	la := NewLiveAnalyzer("keys", Options{}, 1)
	for _, s := range []string{"", "SELECT ?x WHERE { ?x <p> ?y }", "ſelect \xff", strings.Repeat("ASK {} ", 300)} {
		if k, kb := la.keyOf(s), la.keyOfBytes([]byte(s)); k != kb {
			t.Errorf("%q: key %x from the string, %x from its bytes", s, k, kb)
		}
	}
}

// TestIntakeRecycle: a pool of one worker circulates two chunks, and a
// drained chunk comes back to the reader empty with its buffer, unless
// an oversized entry grew that past chunkBytes: then the chunk's next
// fill makes a buffer of chunkBytes again.
func TestIntakeRecycle(t *testing.T) {
	in := newIntake(1)
	if len(in.free) != 2 {
		t.Fatalf("a pool of one worker holds %d chunks, want 2", len(in.free))
	}
	fill := func(n int) *chunk {
		c := in.room(n)
		c.buf = append(c.buf, make([]byte, n)...)
		c.ends = append(c.ends, len(c.buf))
		in.send()
		return c
	}
	fill(3 * chunkBytes)
	in.recycle(<-in.chunks)
	small := fill(10)
	in.recycle(<-in.chunks)
	kept := &small.buf[:1][0]
	for range 2 { // the oversized chunk, then the small one
		c := in.room(10)
		if len(c.buf) != 0 || len(c.ends) != 0 || cap(c.buf) != chunkBytes {
			t.Fatalf("refilled chunk holds %d bytes, %d entries, capacity %d", len(c.buf), len(c.ends), cap(c.buf))
		}
		if c == small && &c.buf[:1][0] != kept {
			t.Fatal("a drained chunk's buffer was not reused")
		}
		if c.base != 2 {
			t.Fatalf("refilled chunk's base is %d, want 2", c.base)
		}
		in.cur = nil
	}
}
