package core

import (
	"strings"
	"testing"
)

func TestURLDecode(t *testing.T) {
	tests := []struct {
		in   string
		want string
		ok   bool
	}{
		{"SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D", "SELECT * WHERE { ?s ?p ?o }", true},
		{"plain", "plain", true},
		{"a%2Fb", "a/b", true},
		{"bad%2", "", false},
		{"bad%zz", "", false},
		{"%41%42", "AB", true},
	}
	for _, tc := range tests {
		// Decoding appends to what dst holds, and a malformed escape
		// leaves dst as it was.
		got, ok := appendURLDecoded([]byte("dst:"), []byte(tc.in))
		if ok != tc.ok || string(got) != "dst:"+tc.want {
			t.Errorf("appendURLDecoded(%q) = %q, %v; want %q, %v", tc.in, got, ok, "dst:"+tc.want, tc.ok)
		}
	}
}

func TestDecodeEntryApache(t *testing.T) {
	line := `127.0.0.1 - - [12/Jun/2015:10:00:00 +0000] "GET /sparql?query=SELECT+%3Fs+WHERE+%7B+%3Fs+a+%3Chttp%3A%2F%2Fex%2FC%3E+%7D&format=json HTTP/1.1" 200 1234`
	got := DecodeEntry(line, FormatApache)
	want := "SELECT ?s WHERE { ?s a <http://ex/C> }"
	if got != want {
		t.Errorf("DecodeEntry = %q, want %q", got, want)
	}
	// The zero value is FormatApache.
	if DecodeEntry(line, LogFormat(0)) != want {
		t.Error("the zero format does not decode")
	}
	// Plain mode passes through.
	if DecodeEntry(line, FormatPlain) != line {
		t.Error("plain mode must not decode")
	}
}

func TestDecodeEntryNoParam(t *testing.T) {
	line := "GET /resource/Paris HTTP/1.1"
	if DecodeEntry(line, FormatApache) != line {
		t.Error("lines without query= pass through")
	}
}

func TestReadLogEndToEnd(t *testing.T) {
	log := strings.Join([]string{
		`"GET /sparql?query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1" 200`,
		"",
		"SELECT * WHERE { ?s ?p ?o }",
		"GET /robots.txt HTTP/1.1",
	}, "\n")
	entries, err := ReadLog(strings.NewReader(log), FormatApache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3 (blank dropped)", len(entries))
	}
	rep := AnalyzeLog("apache", entries, Options{})
	if rep.Valid != 2 {
		t.Errorf("valid = %d, want 2 (the decoded ASK and the plain SELECT)", rep.Valid)
	}
	if rep.NoiseRemoved != 1 {
		t.Errorf("noise = %d, want 1", rep.NoiseRemoved)
	}
	if rep.Keywords["Ask"] != 1 || rep.Keywords["Select"] != 1 {
		t.Errorf("keywords = %v", rep.Keywords)
	}
}

func TestConstantsAnalysis(t *testing.T) {
	entries := []string{
		"SELECT * WHERE { ?s <p> <const> }",         // single edge with constant
		"SELECT * WHERE { ?s <p> ?o }",              // single edge, variables only
		"SELECT * WHERE { ?a <p> ?b . ?b <q> <c> }", // chain ending in constant
	}
	rep := AnalyzeLog("consts", entries, Options{})
	if rep.SingleEdgeWithConstants != 1 {
		t.Errorf("single edge with constants = %d, want 1", rep.SingleEdgeWithConstants)
	}
	// Variables-only rerun: the chain loses its constant leaf and becomes
	// a single edge; the constant-object query loses its only edge and
	// becomes the empty graph (the paper's point: most single-edge CQs
	// vanish without constants).
	if rep.ShapeCQNoConst.SingleEdge != 2 {
		t.Errorf("no-const single edges = %d, want 2", rep.ShapeCQNoConst.SingleEdge)
	}
	if rep.ShapeCQNoConst.Total != 3 {
		t.Errorf("no-const total = %d, want 3", rep.ShapeCQNoConst.Total)
	}
}
