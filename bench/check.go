package main

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"

	"sparqlog/internal/eval"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// sparqldMaxRows is sparqld's default -max-rows; the reference
// evaluation runs under the same cap.
const sparqldMaxRows = 1_000_000

// table is a decoded result: ASK answers carry only ask/boolean.
type table struct {
	ask     bool
	boolean bool
	vars    []string
	rows    [][]string // aligned with vars; "" marks an unbound cell
}

// digest hashes the table. Rows are combined in order when ordered is
// set and by a commutative sum otherwise, so that only ORDER BY results
// are held to their order.
func (t table) digest(ordered bool) uint64 {
	h := fnv.New64a()
	if t.ask {
		fmt.Fprintf(h, "ask %v", t.boolean)
		return h.Sum64()
	}
	fmt.Fprintf(h, "%q %d", t.vars, len(t.rows))
	sum := h.Sum64()
	for _, row := range t.rows {
		rh := fnv.New64a()
		for _, cell := range row {
			rh.Write([]byte(cell))
			rh.Write([]byte{0x1f})
		}
		if ordered {
			sum = sum*1099511628211 + rh.Sum64()
		} else {
			sum += rh.Sum64()
		}
	}
	return sum
}

// expectation is the reference answer to one query.
type expectation struct {
	ask     bool
	rows    int
	digest  uint64
	ordered bool
	// countOnly marks a LIMIT without ORDER BY that cut the result: which
	// rows survive is the engine's choice, so only their number is held.
	countOnly bool
}

// expect evaluates the query in process — one worker, no result cache —
// for the reference answer.
func expect(sn *rdf.Snapshot, query string) (expectation, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return expectation{}, err
	}
	res, err := eval.QueryContext(context.Background(), sn, q, eval.Limits{MaxRows: sparqldMaxRows, Parallel: 1})
	if err != nil {
		return expectation{}, err
	}
	t := table{ask: q.Type == sparql.AskQuery, boolean: res.Bool, vars: res.Vars, rows: res.Rows}
	e := expectation{ask: t.ask, rows: len(res.Rows), ordered: len(q.Mods.OrderBy) > 0}
	e.countOnly = q.Mods.HasLimit && !e.ordered && int64(len(res.Rows)) == q.Mods.Limit
	e.digest = t.digest(e.ordered)
	return e, nil
}

// checkSample verifies one sampled answer against the reference; refs
// caches the reference answers by query text.
func checkSample(sn *rdf.Snapshot, s sampled, refs map[string]expectation) error {
	_, perr := sparql.Parse(s.req.query)
	if (perr != nil) != s.req.malformed {
		return fmt.Errorf("generator marked malformed=%v but parse says %v", s.req.malformed, perr)
	}
	if s.ans.status != http.StatusOK {
		return nil // 400 and 304 carry no answer to check
	}
	want, ok := refs[s.req.query]
	if !ok {
		var err error
		if want, err = expect(sn, s.req.query); err != nil {
			return fmt.Errorf("reference evaluation: %w", err)
		}
		refs[s.req.query] = want
	}
	got, err := decode(s.req.accept, s.ans.body, want)
	if err != nil {
		return fmt.Errorf("decode %s: %w", s.req.accept, err)
	}
	if len(got.rows) != want.rows {
		return fmt.Errorf("got %d rows, want %d", len(got.rows), want.rows)
	}
	if !want.countOnly && got.digest(want.ordered) != want.digest {
		return fmt.Errorf("%s answer differs from the reference (%d rows, vars %q)", s.req.accept, want.rows, got.vars)
	}
	return nil
}

// decode parses a response body of the given media type. The reference
// tells ASK from SELECT, which CSV and TSV bodies do not.
func decode(ctype string, body []byte, want expectation) (table, error) {
	switch ctype {
	case ctJSON:
		return decodeJSON(body)
	case ctXML:
		return decodeXML(body)
	case ctCSV:
		if want.ask {
			return decodeBool(body)
		}
		return decodeCSV(body)
	case ctTSV:
		if want.ask {
			return decodeBool(body)
		}
		return decodeTSV(body)
	}
	return table{}, fmt.Errorf("unknown media type %q", ctype)
}

func decodeJSON(body []byte) (table, error) {
	var doc struct {
		Head    struct{ Vars []string }
		Boolean *bool
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return table{}, err
	}
	if doc.Boolean != nil {
		return table{ask: true, boolean: *doc.Boolean}, nil
	}
	t := table{vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make([]string, len(t.vars))
		for i, v := range t.vars {
			row[i] = b[v].Value
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

func decodeXML(body []byte) (table, error) {
	var doc struct {
		Head struct {
			Variables []struct {
				Name string `xml:"name,attr"`
			} `xml:"variable"`
		} `xml:"head"`
		Boolean *bool `xml:"boolean"`
		Results struct {
			Results []struct {
				Bindings []struct {
					Name    string `xml:"name,attr"`
					URI     string `xml:"uri"`
					Literal string `xml:"literal"`
					BNode   string `xml:"bnode"`
				} `xml:"binding"`
			} `xml:"result"`
		} `xml:"results"`
	}
	if err := xml.Unmarshal(body, &doc); err != nil {
		return table{}, err
	}
	if doc.Boolean != nil {
		return table{ask: true, boolean: *doc.Boolean}, nil
	}
	var t table
	col := map[string]int{}
	for i, v := range doc.Head.Variables {
		t.vars = append(t.vars, v.Name)
		col[v.Name] = i
	}
	for _, r := range doc.Results.Results {
		row := make([]string, len(t.vars))
		for _, b := range r.Bindings {
			row[col[b.Name]] = b.URI + b.Literal + b.BNode
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

func decodeBool(body []byte) (table, error) {
	switch strings.TrimSpace(string(body)) {
	case "true":
		return table{ask: true, boolean: true}, nil
	case "false":
		return table{ask: true}, nil
	}
	return table{}, fmt.Errorf("not a boolean: %.40q", body)
}

// decodeCSV reads RFC 4180 text. It is written out here because
// encoding/csv drops empty lines, and a row whose only cell is unbound
// is an empty line.
func decodeCSV(body []byte) (table, error) {
	var recs [][]string
	var rec []string
	var field strings.Builder
	text := string(body)
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c == '"' && field.Len() == 0:
			for i++; i < len(text); i++ {
				if text[i] == '"' {
					if i+1 < len(text) && text[i+1] == '"' {
						i++
					} else {
						break
					}
				}
				field.WriteByte(text[i])
			}
			if i == len(text) {
				return table{}, fmt.Errorf("csv: unterminated quoted field")
			}
		case c == ',':
			rec = append(rec, field.String())
			field.Reset()
		case c == '\n':
			rec = append(rec, strings.TrimSuffix(field.String(), "\r"))
			field.Reset()
			recs = append(recs, rec)
			rec = nil
		default:
			field.WriteByte(c)
		}
	}
	if len(recs) == 0 {
		return table{}, fmt.Errorf("csv: no header line")
	}
	t := table{rows: recs[1:]}
	if len(recs[0]) > 1 || recs[0][0] != "" { // SELECT * over no solutions has no columns
		t.vars = recs[0]
	}
	return t, nil
}

var tsvUnescape = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n", `\r`, "\r", `\t`, "\t")

func decodeTSV(body []byte) (table, error) {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	var t table
	if lines[0] != "" {
		for _, v := range strings.Split(lines[0], "\t") {
			t.vars = append(t.vars, strings.TrimPrefix(v, "?"))
		}
	}
	for _, line := range lines[1:] {
		row := strings.Split(line, "\t")
		for i, cell := range row {
			switch {
			case strings.HasPrefix(cell, "<"):
				row[i] = strings.TrimSuffix(cell[1:], ">")
			case strings.HasPrefix(cell, `"`):
				row[i] = tsvUnescape.Replace(strings.TrimSuffix(cell[1:], `"`))
			}
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}
