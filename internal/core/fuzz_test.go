package core

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzCleanEntry throws arbitrary log lines at the cleaning front end of
// the pipeline: entry decoding must never panic, FormatPlain must be the
// identity, and percent-decoding must invert percent-encoding.
func FuzzCleanEntry(f *testing.F) {
	seeds := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		`127.0.0.1 - - [12/Jun/2015:10:00:00 +0000] "GET /sparql?query=SELECT+%3Fs+WHERE+%7B+%3Fs+a+%3Chttp%3A%2F%2Fex%2FC%3E+%7D&format=json HTTP/1.1" 200 1234`,
		"GET /sparql?query=ASK%20%7B%7D HTTP/1.1",
		"GET /resource/Paris HTTP/1.1",
		"query=bad%2",
		"query=bad%zz",
		"query=%41%42&other=1",
		"   ",
		"ASK { ?x <p> ?y }",
		"no keywords here",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for _, format := range []LogFormat{FormatAuto, FormatPlain, FormatApache} {
			got := DecodeEntry(line, format)
			if format == FormatPlain && got != line {
				t.Fatalf("FormatPlain must be the identity: %q -> %q", line, got)
			}
		}
		looksLikeQuery(line)

		// Decoding inverts encoding for every string.
		enc := percentEncode(line)
		dec, ok := urlDecode(enc)
		if !ok {
			t.Fatalf("urlDecode rejected well-formed encoding %q of %q", enc, line)
		}
		if dec != line {
			t.Fatalf("urlDecode(percentEncode(%q)) = %q", line, dec)
		}
	})
}

// percentEncode is the test's reference encoder: every byte outside
// [A-Za-z0-9] as %XX (the strictest form urlDecode must accept).
func percentEncode(s string) string {
	const hex = "0123456789ABCDEF"
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			sb.WriteByte(c)
			continue
		}
		sb.WriteByte('%')
		sb.WriteByte(hex[c>>4])
		sb.WriteByte(hex[c&0xf])
	}
	return sb.String()
}

// looksLikeQueryByToUpper is the cleaning test as it was before it
// stopped allocating: upper-case a copy of the entry, look for a
// query-form keyword.
func looksLikeQueryByToUpper(entry string) bool {
	up := strings.ToUpper(entry)
	for _, kw := range []string{"SELECT", "ASK", "CONSTRUCT", "DESCRIBE"} {
		if strings.Contains(up, kw) {
			return true
		}
	}
	return false
}

// FuzzLooksLikeQuery holds the allocation-free cleaning test to the
// upper-casing one on every input, so Total and NoiseRemoved cannot
// move: ASCII in any case, keywords cut short by the end of the entry,
// and the non-ASCII runes whose upper case is a keyword letter.
func FuzzLooksLikeQuery(f *testing.F) {
	for _, s := range []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"select ?x where { ?x a <c> }",
		"DeScRiBe <x>",
		"aSk {}",
		"construct",
		"GET /resource/Paris HTTP/1.1",
		"no keywords here",
		"SELEC", "AS", "DESCRIB", "xCONSTRUC",
		"sselect", "SELESELECT", "a sk",
		"ſelect * {}",           // ſ upper-cases to S
		"descrıbe <x>",          // ı upper-cases to I
		"aſk {}",                // ſ inside ASK
		"é select",              // non-ASCII beside an ASCII keyword
		"é nothing",             // non-ASCII, no keyword
		"sel\xffect", "ask\xc5", // invalid UTF-8
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, entry string) {
		if got, want := looksLikeQuery(entry), looksLikeQueryByToUpper(entry); got != want {
			t.Fatalf("looksLikeQuery(%q) = %v, the upper-casing test says %v", entry, got, want)
		}
	})
}

// FuzzLiveMatchesBatch feeds a LiveAnalyzer a short log picked by the
// input bytes: each byte chooses an entry from a pool (valid texts,
// which the log may repeat, unparseable texts, noise lines, and the
// fuzzer's own string) and whether it arrives through Add or
// AddRequest. In exact, structural and keep-duplicates dedup the report
// must equal AnalyzeLog's over the same log.
func FuzzLiveMatchesBatch(f *testing.F) {
	pool := []string{
		"SELECT ?x WHERE { ?x <p> ?y }",
		"PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p ?y }",
		"SELECT ?a WHERE { ?a <p> ?b }",
		"ASK { <s> <q> ?z OPTIONAL { ?z <r> ?w } }",
		"SELECT ?x WHERE { ?x <p>+ ?y FILTER(?y > 1) }",
		"SELECT ?x WHERE { ?x <p> ",
		"ASK {",
		"GET /favicon.ico",
		"",
	}
	f.Add([]byte{0, 0x80, 0x80, 1, 2, 0x85, 5, 7, 0x87, 0x89, 9}, "SELECT * WHERE { ?s ?p ?o }")
	f.Add([]byte{3, 0x83, 3, 0x83, 0x86, 6, 8, 0x88}, "CONSTRUCT { ?s <p> ?o } WHERE { ?s <q> ?o }")
	f.Add([]byte{9, 0x89, 9, 0x89, 4, 0x84}, "select nothing")
	f.Fuzz(func(t *testing.T, picks []byte, own string) {
		if len(picks) > 64 {
			picks = picks[:64]
		}
		log := make([]string, len(picks))
		for i, b := range picks {
			if n := int(b&0x7f) % (len(pool) + 1); n < len(pool) {
				log[i] = pool[n]
			} else {
				log[i] = own
			}
		}
		for _, opts := range []Options{
			{Lint: true},
			{StructuralDedup: true, Lint: true},
			{KeepDuplicates: true, Lint: true},
			{KeepDuplicates: true, StructuralDedup: true},
		} {
			la := NewLiveAnalyzer("fuzz", opts, 2)
			for i, e := range log {
				if picks[i]&0x80 != 0 {
					la.AddRequest(e)
				} else {
					la.Add(e)
				}
			}
			if want, got := AnalyzeLog("fuzz", log, opts), la.Report(); !reflect.DeepEqual(want, got) {
				diffReports(t, want, got)
				t.Fatalf("%+v: live report differs from batch over %q", opts, log)
			}
		}
	})
}
