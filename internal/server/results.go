package server

import (
	"bufio"
	"encoding/json"
	"encoding/xml"
	"io"
	"strings"

	"sparqlog/internal/eval"
	"sparqlog/internal/value"
)

// writeResult serializes res in the negotiated media type. isAsk marks
// boolean results (serialized as the protocol's boolean forms; the
// CSV/TSV formats, which the spec defines for SELECT only, degrade to
// a single true/false line).
func writeResult(w io.Writer, ct string, res *eval.Result, isAsk bool) error {
	switch ct {
	case ctJSON:
		return writeJSON(w, res, isAsk)
	case ctXML:
		return writeXML(w, res, isAsk)
	case ctCSV:
		return writeSV(w, res, isAsk, ',')
	case ctTSV:
		return writeSV(w, res, isAsk, '\t')
	}
	return writeJSON(w, res, isAsk)
}

// jsonTerm is one RDF term cell of the JSON results format.
type jsonTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

func termJSON(text string) jsonTerm {
	switch value.KindOf(text) {
	case value.KindIRI:
		return jsonTerm{Type: "uri", Value: text}
	case value.KindBlank:
		return jsonTerm{Type: "bnode", Value: strings.TrimPrefix(text, "_:")}
	default:
		return jsonTerm{Type: "literal", Value: text}
	}
}

func writeJSON(w io.Writer, res *eval.Result, isAsk bool) error {
	enc := json.NewEncoder(w)
	if isAsk {
		return enc.Encode(map[string]any{
			"head":    map[string]any{},
			"boolean": res.Bool,
		})
	}
	bindings := make([]map[string]jsonTerm, 0, len(res.Rows))
	for _, row := range res.Rows {
		b := make(map[string]jsonTerm, len(row))
		for i, v := range row {
			if v == eval.Unbound {
				continue
			}
			b[res.Vars[i]] = termJSON(v)
		}
		bindings = append(bindings, b)
	}
	return enc.Encode(map[string]any{
		"head":    map[string]any{"vars": res.Vars},
		"results": map[string]any{"bindings": bindings},
	})
}

func writeXML(w io.Writer, res *eval.Result, isAsk bool) error {
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

// svFlushRows is how many result rows writeSV emits between explicit
// flushes. With an http.ResponseWriter underneath, each flush becomes
// a chunk on the wire, so clients start receiving a huge SELECT answer
// after the first few hundred rows rather than after full
// serialization.
const svFlushRows = 512

// writeSV writes the CSV (sep ',') or TSV (sep '\t') results format:
// CSV carries plain values with RFC 4180 quoting, TSV carries terms in
// SPARQL syntax (<iri>, "literal", _:label) per the W3C TSV spec.
// Output streams row by row through a buffered writer instead of
// materializing the whole document first.
func writeSV(w io.Writer, res *eval.Result, isAsk bool, sep byte) error {
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
				bw.WriteString(tsvTerm(cell))
			} else {
				bw.WriteString(csvField(cell))
			}
		}
		bw.WriteByte('\n')
		if (r+1)%svFlushRows == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// csvField quotes a CSV value per RFC 4180 when needed.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// tsvEscape escapes a literal's lexical form for a TSV cell.
var tsvEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

// tsvTerm renders a term in SPARQL syntax for the TSV format.
func tsvTerm(s string) string {
	switch value.KindOf(s) {
	case value.KindIRI:
		return "<" + s + ">"
	case value.KindBlank:
		return s
	default:
		return `"` + tsvEscape.Replace(s) + `"`
	}
}
