package core

import (
	"reflect"
	"strings"
	"testing"

	"sparqlog/internal/sparql"
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
		for _, format := range []LogFormat{FormatApache, FormatPlain} {
			got := DecodeEntry(line, format)
			if format == FormatPlain && got != line {
				t.Fatalf("FormatPlain must be the identity: %q -> %q", line, got)
			}
			if want := refDecodeEntry(line, format); got != want {
				t.Fatalf("DecodeEntry(%q, %d) = %q, the string decoder says %q", line, format, got, want)
			}
			if b := appendEntry([]byte("dst:"), []byte(line), format); string(b) != "dst:"+got {
				t.Fatalf("appendEntry(%q, %d) appends %q, want %q", line, format, b, got)
			}
		}
		looksLikeQuery(line)

		// Decoding inverts encoding for every string.
		enc := percentEncode(line)
		dec, ok := appendURLDecoded(nil, []byte(enc))
		if !ok {
			t.Fatalf("appendURLDecoded rejected well-formed encoding %q of %q", enc, line)
		}
		if string(dec) != line {
			t.Fatalf("appendURLDecoded(percentEncode(%q)) = %q", line, dec)
		}
	})
}

// refDecodeEntry is DecodeEntry as it was before log lines were decoded
// into byte buffers: string in, string out.
func refDecodeEntry(line string, format LogFormat) string {
	i := strings.Index(line, "query=")
	if format == FormatPlain || i < 0 {
		return line
	}
	rest := line[i+len("query="):]
	if j := strings.IndexAny(rest, "& \""); j >= 0 {
		rest = rest[:j]
	}
	var sb strings.Builder
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; c {
		case '+':
			sb.WriteByte(' ')
		case '%':
			if i+2 >= len(rest) {
				return line
			}
			hi, ok1 := unhex(rest[i+1])
			lo, ok2 := unhex(rest[i+2])
			if !ok1 || !ok2 {
				return line
			}
			sb.WriteByte(hi<<4 | lo)
			i += 2
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// percentEncode is the test's reference encoder: every byte outside
// [A-Za-z0-9] as %XX (the strictest form appendURLDecoded must accept).
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
// and the non-ASCII runes whose upper case is a keyword letter. It also
// holds the parser to the scan and to sparql.MayParse: a text that
// parses is query-like and may parse.
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
		"AS\u212A { ?s ?p ?o }",      // the Kelvin sign folds to k
		"\u017FELECT * { ?s ?p ?o }", // the long s folds to s
		"# comment\n\vprefix e: <u> ask {}",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, entry string) {
		if got, want := looksLikeQuery(entry), looksLikeQueryByToUpper(entry); got != want {
			t.Fatalf("looksLikeQuery(%q) = %v, the upper-casing test says %v", entry, got, want)
		}
		// The live study parses only a text that may parse and scans
		// only a text that does not, which is exact only if every text
		// that parses both may parse and is query-like.
		if _, err := sparql.Parse(entry); err == nil && !(looksLikeQuery(entry) && sparql.MayParse(entry)) {
			t.Fatalf("%q parses but is not query-like or is turned away by MayParse", entry)
		}
	})
}

// FuzzLiveMatchesBatch feeds a LiveAnalyzer a short log picked by the
// input bytes: each byte chooses an entry from a pool (valid texts,
// which the log may repeat, unparseable texts, noise lines, and the
// fuzzer's own string) and whether it arrives through Add or
// AddRequest. In exact, structural and keep-duplicates dedup, on two
// slots and on one (where a structural representative outlives the
// parses after it on its slot; TestMain poisons a recycled tree), the
// report must equal AnalyzeLog's over the same log.
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
			want := AnalyzeLog("fuzz", log, opts)
			for _, workers := range []int{2, 1} {
				la := NewLiveAnalyzer("fuzz", opts, workers)
				for i, e := range log {
					if picks[i]&0x80 != 0 {
						la.AddRequest(e)
					} else {
						la.Add(e)
					}
				}
				if got := la.Report(); !reflect.DeepEqual(want, got) {
					diffReports(t, want, got)
					t.Fatalf("%+v, %d slots: live report differs from batch over %q", opts, workers, log)
				}
			}
		}
	})
}
