package rdf

import (
	"bytes"
	"testing"
)

// FuzzNTriplesRoundTrip checks the writer/reader pair as an inverse on
// the store's term text: whatever three terms go into a store, writing
// its snapshot as N-Triples and reading that text back must reproduce
// the same triple set (the store is untyped text, so "same" means
// term-by-term string equality, not syntax equality).
func FuzzNTriplesRoundTrip(f *testing.F) {
	f.Add("http://ex/s", "http://ex/p", "http://ex/o")
	f.Add("_:b0", "http://ex/p", "_:b1")
	f.Add("_:c.", "urn:x", "ends.with.dot.")
	f.Add("http://ex/s", "http://ex/p", "plain literal")
	f.Add("s with space", "p\twith\ttabs", "o\nwith\nnewlines")
	f.Add("\"quoted\"", "back\\slash", "mixed \" and \\ text")
	f.Add("tag", "http://ex/label", "café \U0001F600 ünïcode")
	f.Add("30", "http://ex/age", "x^^<http://www.w3.org/2001/XMLSchema#integer>")
	f.Add("en", "http://ex/lang", "text@en")
	f.Add("", "urn:empty", "")
	f.Add("a>b://weird", "mailto:x@y", "_:label with space")
	f.Add("_:same", "urn:p", "_:same")
	f.Fuzz(func(t *testing.T, s, p, o string) {
		st := NewStore()
		st.Add(s, p, o)
		// A second triple reusing the terms exercises multi-line output,
		// and Freeze's dedup when s == o.
		st.Add(o, p, s)
		sn := st.Freeze()
		want := 2
		if s == o {
			want = 1
		}
		if sn.Len() != want {
			t.Fatalf("Add(s,p,o), Add(o,p,s) froze to %d triples, want %d", sn.Len(), want)
		}
		var buf bytes.Buffer
		if err := sn.WriteNTriples(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		st2 := NewStore()
		if _, err := st2.ReadNTriples(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("read back: %v\noutput was:\n%s", err, buf.String())
		}
		if !sameTriples(sn, st2.Freeze()) {
			t.Fatalf("round trip changed triples\nwrote %q %q %q\noutput:\n%s", s, p, o, buf.String())
		}
	})
}
