package rdf

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestReadNTriples(t *testing.T) {
	src := `
# a comment
<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/a> <http://ex/name> "Alice" .
<http://ex/a> <http://ex/label> "tag"@en .
<http://ex/a> <http://ex/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b1 <http://ex/p> "esc\"aped\nline" .
`
	st := NewStore()
	n, err := st.ReadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Freeze()
	if n != 5 || sn.Len() != 5 {
		t.Fatalf("loaded %d/%d, want 5", n, sn.Len())
	}
	a, _ := sn.Lookup("http://ex/a")
	name, _ := sn.Lookup("http://ex/name")
	alice, ok := sn.Lookup("Alice")
	if !ok || !sn.Has(a, name, alice) {
		t.Error("literal triple missing")
	}
	if _, ok := sn.Lookup("tag"); !ok {
		t.Error("language-tagged literal should store its lexical form")
	}
	if _, ok := sn.Lookup("esc\"aped\nline"); !ok {
		t.Error("escapes should decode")
	}
}

// Regression: the statement terminator must not leak into a blank-node
// label when no whitespace separates them (`_:c.` at end of line).
func TestReadNTriplesBlankNodeDot(t *testing.T) {
	for _, src := range []string{
		"<http://ex/a> <http://ex/b> _:c.",
		"<http://ex/a> <http://ex/b> _:c.  ",
		"<http://ex/a> <http://ex/b> _:c .",
	} {
		st := NewStore()
		if _, err := st.ReadNTriples(strings.NewReader(src)); err != nil {
			t.Fatalf("ReadNTriples(%q): %v", src, err)
		}
		sn := st.Freeze()
		if _, ok := sn.Lookup("_:c"); !ok {
			t.Errorf("ReadNTriples(%q): label _:c missing", src)
		}
		if _, ok := sn.Lookup("_:c."); ok {
			t.Errorf("ReadNTriples(%q): terminator leaked into label", src)
		}
	}
	// Dots inside a label stay in the label.
	st := NewStore()
	if _, err := st.ReadNTriples(strings.NewReader("_:a.b <http://ex/p> <http://ex/o> .\n")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Freeze().Lookup("_:a.b"); !ok {
		t.Error("interior dot must stay in the label")
	}
}

// Regression: \uXXXX and \UXXXXXXXX escapes must decode to their code
// points instead of dropping the backslash.
func TestReadNTriplesUnicodeEscapes(t *testing.T) {
	src := `<http://ex/a> <http://ex/p> "ABC \U0001F600 é" .`
	st := NewStore()
	if _, err := st.ReadNTriples(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Freeze().Lookup("ABC \U0001F600 é"); !ok {
		t.Error("UCHAR escapes did not decode")
	}
	for _, bad := range []string{
		`<a> <b> "\u00G1" .`,
		`<a> <b> "\u12" .`,
		`<a> <b> "\U00110000" .`,
		`<a> <b> "\uD800" .`, // isolated surrogate half
	} {
		st := NewStore()
		if _, err := st.ReadNTriples(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadNTriples(%q) succeeded, want error", bad)
		}
	}
}

// Regression: a term read from a line is a substring of it, and the
// dictionary must not keep the whole line alive through it. In the
// first input, 200 lines share one 64 KB object IRI; only that IRI,
// once, and the short subjects may stay on the heap. In the second,
// each line has a distinct 2 KB subject IRI and a 64 KB escaped
// literal, decoded into the reader's scratch buffer: the IRIs may stay,
// but not the literals. The third hands Add substrings of 200 distinct
// 64 KB strings: the 2 KB and 100-byte terms may stay, the strings not.
func TestReadNTriplesDoesNotPinLines(t *testing.T) {
	long := strings.Repeat("x", 64<<10)
	var fast, escaped strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&fast, "<http://ex/s%d> <http://ex/p> <http://ex/%s> .\n", i, long)
		fmt.Fprintf(&escaped, "<http://ex/%s%d> <http://ex/p> \"\\t%s\" .\n", long[:2<<10], i, long)
	}
	read := func(src string) func(*Store) error {
		return func(st *Store) error {
			_, err := st.ReadNTriples(strings.NewReader(src))
			return err
		}
	}
	add := func(st *Store) error {
		for i := 0; i < 200; i++ {
			line := fmt.Sprint(i) + long
			st.Add(line[:2<<10], "http://ex/p", line[:100])
		}
		return nil
	}
	for _, load := range []func(*Store) error{read(fast.String()), read(escaped.String()), add} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := NewStore()
		if err := load(st); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(st)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
			t.Errorf("heap grew %d KB: the dictionary pins input lines", grew>>10)
		}
	}
}

// TestLoadHeapObjects pins that a loaded store keeps no heap object per
// term: 100k distinct terms leave its arena chunks, term table, index
// and triple array, where a string per term and a map's tables would
// leave over 100k objects. The reader interns each term from the
// line's bytes without converting it to a string, so reading allocates
// no garbage per term either.
func TestLoadHeapObjects(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&b, "<http://example.org/resource/subject/%d> <http://ex/p> \"object literal number %d\" .\n", i, i)
	}
	src := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewStore()
	if _, err := st.ReadNTriples(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(src)
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	allocs := after.Mallocs - before.Mallocs
	terms := st.Freeze().NumTerms()
	t.Logf("%d terms: %d new heap objects, %d allocations", terms, objects, allocs)
	if terms != 100001 || objects >= 1000 || allocs >= 1000 {
		t.Errorf("loading %d distinct terms left %d new heap objects and made %d allocations, want fewer than 1,000 of each", terms, objects, allocs)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	bad := []string{
		"<http://ex/a> <http://ex/p>",
		"<http://ex/a <http://ex/p> <http://ex/b> .",
		`<http://ex/a> <http://ex/p> "unterminated .`,
		"<http://ex/a> <http://ex/p> <http://ex/b> junk",
	}
	for _, src := range bad {
		st := NewStore()
		if _, err := st.ReadNTriples(strings.NewReader(src)); err == nil {
			t.Errorf("ReadNTriples(%q) succeeded, want error", src)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	st := NewStore()
	st.Add("http://ex/s", "http://ex/p", "http://ex/o")
	st.Add("http://ex/s", "http://ex/name", "plain text")
	st.Add("_:b0", "http://ex/p", "with \"quotes\"")
	st.Add("http://ex/s", "http://ex/note", "tab\there\r\nand newline")
	sn := st.Freeze()
	var buf bytes.Buffer
	if err := sn.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore()
	n, err := st2.ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("%v\noutput was:\n%s", err, buf.String())
	}
	sn2 := st2.Freeze()
	if n != 4 || sn2.Len() != 4 {
		t.Fatalf("round trip = %d triples, want 4", sn2.Len())
	}
	if _, ok := sn2.Lookup("tab\there\r\nand newline"); !ok {
		t.Error("\\r and \\t must survive the round trip")
	}
	if !sameTriples(sn, sn2) {
		t.Error("round trip changed the triple set")
	}
}

// sameTriples reports whether two snapshots hold the same triple set,
// term text by term text.
func sameTriples(a, b *Snapshot) bool {
	if a.Len() != b.Len() {
		return false
	}
	set := make(map[[3]string]bool, a.Len())
	for _, t := range a.Triples() {
		set[[3]string{a.TermOf(t.S), a.TermOf(t.P), a.TermOf(t.O)}] = true
	}
	for _, t := range b.Triples() {
		if !set[[3]string{b.TermOf(t.S), b.TermOf(t.P), b.TermOf(t.O)}] {
			return false
		}
	}
	return true
}
