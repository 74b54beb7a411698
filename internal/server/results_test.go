package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"sparqlog/internal/eval"
	"sparqlog/internal/rdf"
)

// referenceSV is the pre-streaming serializer: the whole document
// built in memory. writeSV must stay byte-identical to it.
func referenceSV(res *eval.Result, isAsk bool, sep byte) string {
	var sb strings.Builder
	if isAsk {
		if res.Bool {
			return "true\n"
		}
		return "false\n"
	}
	tsv := sep == '\t'
	for i, v := range res.Vars {
		if i > 0 {
			sb.WriteByte(sep)
		}
		if tsv {
			sb.WriteByte('?')
		}
		sb.WriteString(v)
	}
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for i, cell := range row {
			if i > 0 {
				sb.WriteByte(sep)
			}
			if cell == eval.Unbound {
				continue
			}
			if tsv {
				sb.WriteString(tsvTerm(cell))
			} else {
				sb.WriteString(csvField(cell))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWriteSVByteIdentical pins the streaming rewrite against the
// materializing reference over quoting and escaping corners.
func TestWriteSVByteIdentical(t *testing.T) {
	cases := []*eval.Result{
		{Vars: []string{"s", "v"}, Rows: [][]string{
			{"urn:a", "plain"},
			{"urn:b", `has "quotes", commas`},
			{"urn:c", "line\nbreak\ttab"},
			{"urn:d", eval.Unbound},
			{"_:b0", "ends\r"},
		}},
		{Vars: []string{"x"}, Rows: nil},
		{Bool: true},
		{Bool: false},
	}
	for ci, res := range cases {
		isAsk := res.Vars == nil
		for _, sep := range []byte{',', '\t'} {
			var buf bytes.Buffer
			if err := writeSV(&buf, res, isAsk, sep); err != nil {
				t.Fatalf("case %d sep %q: %v", ci, sep, err)
			}
			if got, want := buf.String(), referenceSV(res, isAsk, sep); got != want {
				t.Fatalf("case %d sep %q diverges:\ngot:  %q\nwant: %q", ci, sep, got, want)
			}
		}
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
// and that reassembling the chunks still yields the reference bytes.
func TestWriteSVStreamsChunks(t *testing.T) {
	res := &eval.Result{Vars: []string{"s", "o"}}
	for i := 0; i < 3*svFlushRows; i++ {
		res.Rows = append(res.Rows, []string{fmt.Sprintf("urn:s%d", i), fmt.Sprintf("value %d", i)})
	}
	for _, sep := range []byte{',', '\t'} {
		rec := &chunkRecorder{}
		if err := writeSV(rec, res, false, sep); err != nil {
			t.Fatal(err)
		}
		if rec.writes < 3 {
			t.Fatalf("sep %q: %d chunks, want >= 3 (output was materialized, not streamed)", sep, rec.writes)
		}
		if got, want := rec.String(), referenceSV(res, false, sep); got != want {
			t.Fatalf("sep %q: reassembled chunks diverge from reference", sep)
		}
	}
}

// TestTermTestsAgreeWithWire asks the endpoint the same question two
// ways: which kind the JSON writer gives a cell, and whether the cell
// passes FILTER(isIRI / isBlank / isLiteral). Both read the term's
// text through value.KindOf, so a cell typed "uri" on the wire passes
// isIRI and no other test, whatever its scheme.
func TestTermTestsAgreeWithWire(t *testing.T) {
	st := rdf.NewStore()
	for _, o := range []string{"http://example.org/x", "tel:1", "doi:10.1/x", "urn:isbn:1", "_:b1", "plain", "42"} {
		st.Add("urn:s", "urn:p", o)
	}
	_, ts := newTestServer(t, Config{Snapshot: st.Freeze()})
	cells := func(filter string) map[string]string {
		t.Helper()
		q := `SELECT ?o WHERE { <urn:s> <urn:p> ?o ` + filter + ` }`
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", ctJSON)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, body)
		}
		_, bindings := decodeJSONRows(t, body)
		kinds := map[string]string{}
		for _, b := range bindings {
			kinds[b["o"]["value"]] = b["o"]["type"]
		}
		return kinds
	}
	all := cells("")
	if len(all) != 7 {
		t.Fatalf("expected 7 cells, got %v", all)
	}
	for _, tc := range []struct{ test, wire string }{
		{"isIRI", "uri"}, {"isBlank", "bnode"}, {"isLiteral", "literal"},
	} {
		passed := cells(`FILTER(` + tc.test + `(?o))`)
		for text, kind := range all {
			if _, ok := passed[text]; ok != (kind == tc.wire) {
				t.Errorf("cell %q is %q on the wire but %s(?o) = %v", text, kind, tc.test, ok)
			}
		}
	}
}
