package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/gmark"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
	"sparqlog/internal/value"
)

// ---- the oracle: the four serializers as they were before the
// columnar answer, over string rows. They were the production writers
// (map-per-row JSON through encoding/json, XML through a
// strings.Builder and xml.EscapeText, CSV/TSV through bufio) and are
// kept verbatim as the definition of the wire format. ----

func oldWriteResult(w io.Writer, ct string, res *eval.Result, isAsk bool) error {
	switch ct {
	case ctXML:
		return oldWriteXML(w, res, isAsk)
	case ctCSV:
		return oldWriteSV(w, res, isAsk, ',')
	case ctTSV:
		return oldWriteSV(w, res, isAsk, '\t')
	}
	return oldWriteJSON(w, res, isAsk)
}

type oldJSONTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

func oldTermJSON(text string) oldJSONTerm {
	switch value.KindOf(text) {
	case value.KindIRI:
		return oldJSONTerm{Type: "uri", Value: text}
	case value.KindBlank:
		return oldJSONTerm{Type: "bnode", Value: strings.TrimPrefix(text, "_:")}
	default:
		return oldJSONTerm{Type: "literal", Value: text}
	}
}

func oldWriteJSON(w io.Writer, res *eval.Result, isAsk bool) error {
	enc := json.NewEncoder(w)
	if isAsk {
		return enc.Encode(map[string]any{
			"head":    map[string]any{},
			"boolean": res.Bool,
		})
	}
	bindings := make([]map[string]oldJSONTerm, 0, len(res.Rows))
	for _, row := range res.Rows {
		b := make(map[string]oldJSONTerm, len(row))
		for i, v := range row {
			if v == eval.Unbound {
				continue
			}
			b[res.Vars[i]] = oldTermJSON(v)
		}
		bindings = append(bindings, b)
	}
	return enc.Encode(map[string]any{
		"head":    map[string]any{"vars": res.Vars},
		"results": map[string]any{"bindings": bindings},
	})
}

func oldWriteXML(w io.Writer, res *eval.Result, isAsk bool) error {
	var sb strings.Builder
	sb.WriteString(`<?xml version="1.0"?>` + "\n")
	sb.WriteString(`<sparql xmlns="http://www.w3.org/2005/sparql-results#">` + "\n")
	esc := func(s string) string {
		var b strings.Builder
		xml.EscapeText(&b, []byte(s))
		return b.String()
	}
	if isAsk {
		sb.WriteString("  <head/>\n")
		if res.Bool {
			sb.WriteString("  <boolean>true</boolean>\n")
		} else {
			sb.WriteString("  <boolean>false</boolean>\n")
		}
	} else {
		sb.WriteString("  <head>\n")
		for _, v := range res.Vars {
			sb.WriteString(`    <variable name="` + esc(v) + `"/>` + "\n")
		}
		sb.WriteString("  </head>\n  <results>\n")
		for _, row := range res.Rows {
			sb.WriteString("    <result>\n")
			for i, cell := range row {
				if cell == eval.Unbound {
					continue
				}
				sb.WriteString(`      <binding name="` + esc(res.Vars[i]) + `">`)
				switch value.KindOf(cell) {
				case value.KindIRI:
					sb.WriteString("<uri>" + esc(cell) + "</uri>")
				case value.KindBlank:
					sb.WriteString("<bnode>" + esc(strings.TrimPrefix(cell, "_:")) + "</bnode>")
				default:
					sb.WriteString("<literal>" + esc(cell) + "</literal>")
				}
				sb.WriteString("</binding>\n")
			}
			sb.WriteString("    </result>\n")
		}
		sb.WriteString("  </results>\n")
	}
	sb.WriteString("</sparql>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func oldWriteSV(w io.Writer, res *eval.Result, isAsk bool, sep byte) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	if isAsk {
		if res.Bool {
			bw.WriteString("true\n")
		} else {
			bw.WriteString("false\n")
		}
		return bw.Flush()
	}
	tsv := sep == '\t'
	for i, v := range res.Vars {
		if i > 0 {
			bw.WriteByte(sep)
		}
		if tsv {
			bw.WriteByte('?')
		}
		bw.WriteString(v)
	}
	bw.WriteByte('\n')
	for r, row := range res.Rows {
		for i, cell := range row {
			if i > 0 {
				bw.WriteByte(sep)
			}
			if cell == eval.Unbound {
				continue
			}
			if tsv {
				bw.WriteString(oldTSVTerm(cell))
			} else {
				bw.WriteString(oldCSVField(cell))
			}
		}
		bw.WriteByte('\n')
		if (r+1)%flushRows == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func oldCSVField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

var oldTSVEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

func oldTSVTerm(s string) string {
	switch value.KindOf(s) {
	case value.KindIRI:
		return "<" + s + ">"
	case value.KindBlank:
		return s
	default:
		return `"` + oldTSVEscape.Replace(s) + `"`
	}
}

// ---- new against old ----

var allContentTypes = []string{ctJSON, ctXML, ctCSV, ctTSV}

// hostileTexts are cell texts that exercise every escaping rule of the
// four formats: markup and quoting characters, separators, control
// bytes, the JavaScript line separators, invalid UTF-8, a blank node,
// and IRI look-alikes on both sides of value.KindOf's line.
var hostileTexts = []string{
	"plain", "42", "urn:a", "http://example.org/x?a=1&b=<2>", "_:b0", "_:",
	`has "quotes", commas`, "line\nbreak\ttab", "ends\r", `back\slash`,
	"<tag attr='v'>&amp;</tag>", "ctl\x00\x01\x1f\x7f", "sep\u2028and\u2029",
	"bad\xffutf8\xc3", "\xed\xa0\x80surrogate", "\uFFFDreal replacement",
	"mailto:a@b", "not an iri: space", "ünïcødé 日本語 🙂", " ", "a,b", `""`,
}

// jsonDoc is a decoded JSON results document, with the one place where
// the old encoder's output was not the format's normalized: a nil Vars
// went out as "vars":null, the hand-rolled writer sends [].
type jsonDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean"`
	Results *struct {
		Bindings []map[string]oldJSONTerm `json:"bindings"`
	} `json:"results"`
}

func decodeJSONDoc(t testing.TB, body []byte) jsonDoc {
	t.Helper()
	var d jsonDoc
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("invalid JSON: %v\n%q", err, body)
	}
	if len(d.Head.Vars) == 0 {
		d.Head.Vars = nil
	}
	return d
}

// checkWire serializes a in all four formats with the new writers —
// streamed through writeResult and whole through a sink-less encoder,
// which must agree — and compares with the oracle over the answer's
// row form: XML, CSV and TSV byte for byte, JSON after decoding (member
// order and HTML escaping were encoding/json artefacts).
func checkWire(t testing.TB, name string, sn *rdf.Snapshot, a *exec.Answer, isAsk bool) {
	t.Helper()
	res := &eval.Result{Vars: a.Vars, Rows: a.Rows(sn), Bool: a.Bool}
	for _, ct := range allContentTypes {
		var want, streamed bytes.Buffer
		if err := oldWriteResult(&want, ct, res, isAsk); err != nil {
			t.Fatalf("%s %s: oracle: %v", name, ct, err)
		}
		if err := writeResult(&streamed, ct, sn, a, isAsk); err != nil {
			t.Fatalf("%s %s: %v", name, ct, err)
		}
		var e encoder
		e.encode(ct, sn, a, isAsk)
		if !bytes.Equal(e.buf, streamed.Bytes()) {
			t.Fatalf("%s %s: streamed and whole-body serializations differ", name, ct)
		}
		if ct != ctJSON {
			if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
				t.Fatalf("%s %s: bytes differ from the reference writer\n got %q\nwant %q", name, ct, streamed.Bytes(), want.Bytes())
			}
			continue
		}
		if !json.Valid(streamed.Bytes()) {
			t.Fatalf("%s: invalid JSON\n%q", name, streamed.Bytes())
		}
		if got, ref := decodeJSONDoc(t, streamed.Bytes()), decodeJSONDoc(t, want.Bytes()); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: JSON decodes differently from the reference writer\n got %q\nwant %q", name, streamed.Bytes(), want.Bytes())
		}
	}
}

// wireSnapshot is a Bib graph extended with what the benchmark's
// dataset has and gmark lacks (publication years, names) plus hostile
// literals and blank nodes, so query answers carry every kind of cell.
func wireSnapshot(t testing.TB) *rdf.Snapshot {
	t.Helper()
	g := gmark.Generate(gmark.Config{Nodes: 400, Seed: 17}).Snapshot
	st := rdf.NewStore()
	for _, tr := range g.Triples() {
		st.Add(g.TermOf(tr.S), g.TermOf(tr.P), g.TermOf(tr.O))
	}
	const p = "http://gmark.bib/p/"
	for i := 0; i < 60; i++ {
		st.Add(fmt.Sprintf("http://gmark.bib/paper/%d", i), p+"year", fmt.Sprint(1990+i%7))
		st.Add(fmt.Sprintf("http://gmark.bib/researcher/%d", i), p+"name", hostileTexts[i%len(hostileTexts)])
		st.Add(fmt.Sprintf("_:anon%d", i%5), p+"name", fmt.Sprintf("anonymous %d", i))
	}
	return st.Freeze()
}

// wireQueries are the benchmark's heavy templates (bench/workloads.go)
// and its log-mix forms, plus the shapes that produce the other cell
// and answer kinds: ASK, DESCRIBE, CONSTRUCT, nothing, holes, blank
// nodes, computed (overflow) cells.
var wireQueries = []string{
	`SELECT DISTINCT ?r ?u WHERE { VALUES ?y { 1990 1991 } ?p bib:year ?y . ?p bib:authoredBy ?r . ?r bib:affiliatedWith ?u } LIMIT 100000`,
	`SELECT DISTINCT ?p ?j WHERE { VALUES ?y { 1990 1991 1992 } ?p bib:year ?y . ?p bib:publishedIn ?j . ?p bib:authoredBy ?r . ?p bib:cites ?c } LIMIT 100001`,
	`SELECT DISTINCT ?a WHERE { ?a bib:knows ?b . ?b bib:knows ?c . ?c bib:knows ?a } LIMIT 100002`,
	`SELECT ?j (COUNT(?p) AS ?n) WHERE { VALUES ?y { 1990 1991 1992 1993 } ?p bib:year ?y . ?p bib:publishedIn ?j } GROUP BY ?j HAVING (COUNT(?p) > 1) ORDER BY DESC(?n) ?j LIMIT 100003`,
	`SELECT ?r ?nm WHERE { VALUES ?y { 1990 } ?p bib:year ?y . ?p bib:authoredBy ?r . ?r bib:name ?nm } ORDER BY ?nm ?r LIMIT 100004 OFFSET 2`,
	`SELECT ?x WHERE { ?x bib:cites+ paper:3 } LIMIT 100005`,
	`SELECT ?x WHERE { researcher:1 (bib:knows|^bib:knows)* ?x } LIMIT 100006`,
	`SELECT ?s ?o WHERE { ?s bib:presentedAt ?o } LIMIT 100007`,
	`SELECT ?u (COUNT(DISTINCT ?k) AS ?c) WHERE { VALUES ?y { 1990 1991 } ?p bib:year ?y . ?p bib:authoredBy ?r . ?r bib:affiliatedWith ?u . ?r bib:knows ?k } GROUP BY ?u HAVING (COUNT(DISTINCT ?k) > 1) ORDER BY DESC(?c) ?u LIMIT 100008`,
	`SELECT ?p ?a ?c ?j WHERE { ?p bib:cites paper:2 . ?p bib:authoredBy ?a OPTIONAL { ?p bib:presentedAt ?c } OPTIONAL { ?p bib:publishedIn ?j } } LIMIT 100009`,
	`SELECT ?p ?q WHERE { { ?p bib:cites paper:1 } UNION { ?p bib:cites paper:2 } ?q bib:cites ?p } LIMIT 100010`,
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 3`,
	`SELECT * WHERE { ?x bib:name ?n }`,
	`ASK { ?x bib:cites ?y }`,
	`ASK { ?x bib:cites ?x }`,
	`DESCRIBE paper:3`,
	`DESCRIBE ?p WHERE { ?p bib:cites paper:1 }`,
	`CONSTRUCT { ?y bib:citedBy ?x . ?x a "cited, \"quoted\"" } WHERE { ?x bib:cites ?y } LIMIT 40`,
	`SELECT ?x WHERE { ?x bib:nosuch ?y }`,
	`SELECT * WHERE { ?x bib:nosuch ?y }`,
	`SELECT ?x ?never WHERE { ?x bib:name ?n } LIMIT 5`,
	`SELECT ?never WHERE { ?x bib:name ?n } LIMIT 5`,
	`SELECT ?b ?n WHERE { ?b bib:name ?n FILTER(isBlank(?b)) }`,
	`SELECT ?x (CONCAT("<", ?n, "> & co") AS ?tag) (STRLEN(?n) AS ?len) WHERE { ?x bib:name ?n }`,
	`SELECT ?x ?d WHERE { ?x bib:year ?y BIND(?y * 2 AS ?d) } LIMIT 20`,
	`SELECT DISTINCT (UCASE(?n) AS ?u) WHERE { ?x bib:name ?n } OFFSET 3 LIMIT 9`,
	`SELECT ?x WHERE { ?x bib:name ?n } OFFSET 100000`,
}

const wirePrologue = "PREFIX bib: <http://gmark.bib/p/>\nPREFIX paper: <http://gmark.bib/paper/>\nPREFIX researcher: <http://gmark.bib/researcher/>\n"

// TestWriteResultMatchesReference: the wire is the contract. Every
// answer shape the benchmark requests and every kind of cell goes
// through the new serializers and the old ones.
func TestWriteResultMatchesReference(t *testing.T) {
	sn := wireSnapshot(t)
	nonEmpty := 0
	for _, src := range wireQueries {
		q, err := sparql.Parse(wirePrologue + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := eval.QueryAnswer(context.Background(), sn, q, eval.Limits{})
		if err != nil {
			t.Fatalf("evaluate %q: %v", src, err)
		}
		if res.Answer.Len() > 0 {
			nonEmpty++
		}
		checkWire(t, src, sn, res.Answer, q.Type == sparql.AskQuery)
	}
	if nonEmpty < len(wireQueries)-8 {
		t.Fatalf("only %d of %d queries returned rows: the corpus no longer exercises the writers", nonEmpty, len(wireQueries))
	}

	// Answers no query produces on this store: non-nil empty rows, a
	// row of nothing, columns of holes only, every hostile text in
	// every kind of cell (none is in the dictionary: overflow cells).
	synthetic := []struct {
		name string
		vars []string
		rows [][]string
	}{
		{"nil rows", []string{"x"}, nil},
		{"empty rows", []string{"x", "y"}, [][]string{}},
		{"no vars, one row", nil, [][]string{{}}},
		{"all unbound", []string{"a", "b"}, [][]string{{"", ""}, {"", ""}}},
		{"short rows", []string{"a", "b"}, [][]string{{"urn:x"}, {}}},
	}
	hostile := synthetic[0]
	hostile.name, hostile.vars = "hostile", []string{"s", "v"}
	for i, txt := range hostileTexts {
		hostile.rows = append(hostile.rows, []string{hostileTexts[(i+1)%len(hostileTexts)], txt}, []string{"", txt})
	}
	for _, tc := range append(synthetic, hostile) {
		checkWire(t, tc.name, sn, exec.NewAnswer(sn, tc.vars, tc.rows, false), false)
	}
	checkWire(t, "ask true", sn, exec.NewAnswer(sn, nil, nil, true), true)
	checkWire(t, "ask false", sn, exec.NewAnswer(sn, nil, nil, false), true)
}

// FuzzWriteResult holds the same comparison over arbitrary cell text.
func FuzzWriteResult(f *testing.F) {
	for i, txt := range hostileTexts {
		f.Add(txt, hostileTexts[(i+7)%len(hostileTexts)], uint8(i), i%5 == 0)
	}
	sn := rdf.NewStore().Freeze()
	f.Fuzz(func(t *testing.T, a, b string, holes uint8, ask bool) {
		cells := []string{a, b, b + a, a}
		for i := range cells {
			if holes&(1<<i) != 0 {
				cells[i] = ""
			}
		}
		ans := exec.NewAnswer(sn, []string{"x", "y"}, [][]string{cells[:2], cells[2:]}, holes&16 != 0)
		checkWire(t, "fuzz", sn, ans, ask)
	})
}

// TestWriteSVByteIdentical pins the CSV/TSV writers over quoting and
// escaping corners.
func TestWriteSVByteIdentical(t *testing.T) {
	sn := rdf.NewStore().Freeze()
	for _, a := range []*exec.Answer{
		exec.NewAnswer(sn, []string{"s", "v"}, [][]string{
			{"urn:a", "plain"},
			{"urn:b", `has "quotes", commas`},
			{"urn:c", "line\nbreak\ttab"},
			{"urn:d", eval.Unbound},
			{"_:b0", "ends\r"},
		}, false),
		exec.NewAnswer(sn, []string{"x"}, nil, false),
		exec.NewAnswer(sn, nil, nil, true),
		exec.NewAnswer(sn, nil, nil, false),
	} {
		checkWire(t, "sv corners", sn, a, a.Vars == nil)
	}
}

// chunkRecorder counts the Write calls it receives, i.e. the chunks a
// net/http ResponseWriter would put on the wire.
type chunkRecorder struct {
	bytes.Buffer
	writes int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriteSVStreamsChunks proves a large SELECT answer leaves in
// multiple chunks — bytes hit the wire before serialization finishes —
// in every format, and that reassembling the chunks still yields the
// reference bytes (checkWire compares streamed against whole).
func TestWriteSVStreamsChunks(t *testing.T) {
	sn := rdf.NewStore().Freeze()
	var rows [][]string
	for i := 0; i < 3*flushRows; i++ {
		rows = append(rows, []string{fmt.Sprintf("urn:s%d", i), fmt.Sprintf("value %d", i)})
	}
	a := exec.NewAnswer(sn, []string{"s", "o"}, rows, false)
	for _, ct := range allContentTypes {
		rec := &chunkRecorder{}
		if err := writeResult(rec, ct, sn, a, false); err != nil {
			t.Fatal(err)
		}
		if rec.writes < 3 {
			t.Fatalf("%s: %d chunks, want >= 3 (output was materialized, not streamed)", ct, rec.writes)
		}
	}
	checkWire(t, "chunked", sn, a, false)
}

// BenchmarkWriteResult measures the serializers alone, whole-body (the
// cache-fill form), on a small and a large answer of the benchmark's
// commonest shape: two IRI columns.
func BenchmarkWriteResult(b *testing.B) {
	sn := testSnapshot(b, 12000)
	q, err := sparql.Parse(`PREFIX bib: <http://gmark.bib/p/> SELECT ?p ?q WHERE { ?p bib:cites ?q }`)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eval.QueryContext(context.Background(), sn, q, eval.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 10000} {
		if len(res.Rows) < n {
			b.Fatalf("only %d rows", len(res.Rows))
		}
		a := exec.NewAnswer(sn, res.Vars, res.Rows[:n], false)
		for k, ct := range allContentTypes {
			b.Run(fmt.Sprintf("%s/rows=%d", []string{"json", "xml", "csv", "tsv"}[k], n), func(b *testing.B) {
				b.ReportAllocs()
				var e encoder
				for i := 0; i < b.N; i++ {
					e.buf = e.buf[:0]
					e.encode(ct, sn, a, false)
				}
				b.SetBytes(int64(len(e.buf)))
			})
		}
	}
}
