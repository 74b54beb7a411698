package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"sparqlog/internal/exec"
	"sparqlog/internal/rdf"
	"sparqlog/internal/value"
)

// The four result serializers read the executor's columnar answer cell
// by cell — ID → term text (dictionary or the answer's overflow) →
// value.KindOf → bytes — appending to one buffer. This is the only
// place on the serving path where a term's text is read ("IDs until
// serialization"); nothing is reflected over and no per-row value is
// built. The writers they replaced are the test oracle.

// flushRows is how many rows a streamed response buffers between
// writes. Each write becomes a chunk on the wire, so a client starts
// receiving a huge SELECT answer after the first few hundred rows.
const flushRows = 512

// encoder is the byte sink of one serialization. With w set it streams;
// with w nil the whole document stays in buf, which is how a
// cache-resident body is produced.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// encoders recycles encoders with their buffers, so a buffer that has
// grown to the size of the bodies a server produces does not grow
// again. One past maxPooledBuf is left to the collector: a huge answer
// must not pin its size forever.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

const maxPooledBuf = 4 << 20

func newEncoder(w io.Writer) *encoder {
	e := encoders.Get().(*encoder)
	e.w, e.buf, e.err = w, e.buf[:0], nil
	return e
}

func (e *encoder) release() {
	if cap(e.buf) <= maxPooledBuf {
		encoders.Put(e)
	}
}

// rowDone ends row r (0-based) of the document growing in buf and
// returns the buffer to continue in: the same, or an emptied one after
// a streamed write.
func (e *encoder) rowDone(buf []byte, r int) []byte {
	if e.w == nil || (r+1)%flushRows != 0 {
		return buf
	}
	e.buf = buf
	e.flush()
	return e.buf
}

func (e *encoder) flush() {
	if e.w == nil {
		return
	}
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// writeResult streams the answer to w in the negotiated media type.
// isAsk marks boolean results (the protocol's boolean forms; CSV/TSV,
// which the spec defines for SELECT only, degrade to one true/false
// line).
func writeResult(w io.Writer, ct string, sn *rdf.Snapshot, a *exec.Answer, isAsk bool) error {
	e := newEncoder(w)
	defer e.release()
	e.encode(ct, sn, a, isAsk)
	e.flush()
	return e.err
}

// encode appends the answer's serialization in media type ct.
func (e *encoder) encode(ct string, sn *rdf.Snapshot, a *exec.Answer, isAsk bool) {
	switch ct {
	case ctXML:
		e.xml(sn, a, isAsk)
	case ctCSV, ctTSV:
		e.sv(sn, a, isAsk, ct == ctTSV)
	default:
		e.json(sn, a, isAsk)
	}
}

// escaper rewrites text for one format: a replacement per ASCII byte
// ("" copies the byte) and, where the format cares, one per multi-byte
// rune or invalid byte.
type escaper struct {
	ascii [utf8.RuneSelf]string
	wide  func(r rune, size int) string
}

func (x *escaper) append(buf []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		rep, size := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			rep = x.ascii[c]
		} else if x.wide != nil {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			rep = x.wide(r, size)
		}
		if rep != "" {
			buf = append(append(buf, s[last:i]...), rep...)
			last = i + size
		}
		i += size
	}
	return append(buf, s[last:]...)
}

// newEscaper fills the ASCII table: every control byte gets ctl(c), then
// pairs of (byte, replacement) override.
func newEscaper(wide func(rune, int) string, ctl func(c int) string, pairs ...string) *escaper {
	x := &escaper{wide: wide}
	for c := 0; ctl != nil && c < 0x20; c++ {
		x.ascii[c] = ctl(c)
	}
	for i := 0; i < len(pairs); i += 2 {
		x.ascii[pairs[i][0]] = pairs[i+1]
	}
	return x
}

var (
	// JSON: what the grammar requires, U+2028/9 for script embedding,
	// invalid UTF-8 as U+FFFD (as encoding/json did).
	jsonEsc = newEscaper(func(r rune, size int) string {
		switch {
		case r == utf8.RuneError && size == 1:
			return `\ufffd`
		case r == '\u2028':
			return `\u2028`
		case r == '\u2029':
			return `\u2029`
		}
		return ""
	}, func(c int) string { return fmt.Sprintf(`\u%04x`, c) },
		`"`, `\"`, `\`, `\\`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	// XML: byte for byte what encoding/xml.EscapeText writes; anything
	// outside XML's character range becomes U+FFFD.
	xmlEsc = newEscaper(func(r rune, size int) string {
		if r == utf8.RuneError && size == 1 || r == 0xFFFE || r == 0xFFFF {
			return "\uFFFD"
		}
		return ""
	}, func(int) string { return "\uFFFD" },
		`"`, "&#34;", "'", "&#39;", "&", "&amp;", "<", "&lt;", ">", "&gt;", "\t", "&#x9;", "\n", "&#xA;", "\r", "&#xD;")
	tsvEsc = newEscaper(nil, nil, `\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	csvEsc = newEscaper(nil, nil, `"`, `""`)

	// kindName is a cell's JSON "type" and XML element, by value.Kind.
	kindName = [...]string{value.KindLiteral: "literal", value.KindIRI: "uri", value.KindBlank: "bnode"}
)

// cell returns what a JSON or XML cell shows for a term, and its kind:
// a blank node goes by its label alone.
func cell(text string) (string, value.Kind) {
	k := value.KindOf(text)
	if k == value.KindBlank {
		text = strings.TrimPrefix(text, "_:")
	}
	return text, k
}

func jsonString(buf []byte, s string) []byte {
	return append(jsonEsc.append(append(buf, '"'), s), '"')
}

// json writes the SPARQL 1.1 Query Results JSON format, members in
// projection order.
func (e *encoder) json(sn *rdf.Snapshot, a *exec.Answer, isAsk bool) {
	if isAsk {
		e.buf = append(strconv.AppendBool(append(e.buf, `{"head":{},"boolean":`...), a.Bool), "}\n"...)
		return
	}
	buf := append(e.buf, `{"head":{"vars":[`...)
	for j, v := range a.Vars {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = jsonString(buf, v)
	}
	buf = append(buf, `]},"results":{"bindings":[`...)
	for i := 0; i < a.Len(); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		open := len(buf)
		for j, v := range a.Vars {
			id := a.Col(j)[i]
			if id == exec.Unbound {
				continue
			}
			if len(buf) > open {
				buf = append(buf, ',')
			}
			text, k := cell(a.Term(sn, id))
			buf = append(append(append(jsonString(buf, v), `:{"type":"`...), kindName[k]...), `","value":`...)
			buf = append(jsonString(buf, text), '}')
		}
		buf = e.rowDone(append(buf, '}'), i)
	}
	e.buf = append(buf, "]}}\n"...)
}

// xml writes the SPARQL Query Results XML format.
func (e *encoder) xml(sn *rdf.Snapshot, a *exec.Answer, isAsk bool) {
	buf := append(e.buf, `<?xml version="1.0"?>`+"\n"+`<sparql xmlns="http://www.w3.org/2005/sparql-results#">`+"\n"...)
	if isAsk {
		e.buf = append(strconv.AppendBool(append(buf, "  <head/>\n  <boolean>"...), a.Bool), "</boolean>\n</sparql>\n"...)
		return
	}
	buf = append(buf, "  <head>\n"...)
	for _, v := range a.Vars {
		buf = append(xmlEsc.append(append(buf, `    <variable name="`...), v), `"/>`+"\n"...)
	}
	buf = append(buf, "  </head>\n  <results>\n"...)
	for i := 0; i < a.Len(); i++ {
		buf = append(buf, "    <result>\n"...)
		for j, v := range a.Vars {
			id := a.Col(j)[i]
			if id == exec.Unbound {
				continue
			}
			text, k := cell(a.Term(sn, id))
			buf = append(xmlEsc.append(append(buf, `      <binding name="`...), v), `"><`...)
			buf = xmlEsc.append(append(append(buf, kindName[k]...), '>'), text)
			buf = append(append(append(buf, "</"...), kindName[k]...), "></binding>\n"...)
		}
		buf = e.rowDone(append(buf, "    </result>\n"...), i)
	}
	e.buf = append(buf, "  </results>\n</sparql>\n"...)
}

// sv writes the CSV or TSV results format: CSV carries plain values
// with RFC 4180 quoting, TSV carries terms in SPARQL syntax (<iri>,
// "literal", _:label) per the W3C TSV spec.
func (e *encoder) sv(sn *rdf.Snapshot, a *exec.Answer, isAsk, tsv bool) {
	if isAsk {
		e.buf = append(strconv.AppendBool(e.buf, a.Bool), '\n')
		return
	}
	buf, sep := e.buf, byte(',')
	if tsv {
		sep = '\t'
	}
	for j, v := range a.Vars {
		if j > 0 {
			buf = append(buf, sep)
		}
		if tsv {
			buf = append(buf, '?')
		}
		buf = append(buf, v...)
	}
	buf = append(buf, '\n')
	for i := 0; i < a.Len(); i++ {
		for j := range a.Vars {
			if j > 0 {
				buf = append(buf, sep)
			}
			id := a.Col(j)[i]
			if id == exec.Unbound {
				continue
			}
			text := a.Term(sn, id)
			k := value.KindLiteral
			if tsv {
				k = value.KindOf(text)
			}
			switch {
			case !tsv && strings.ContainsAny(text, ",\"\n\r"):
				buf = append(csvEsc.append(append(buf, '"'), text), '"')
			case !tsv || k == value.KindBlank:
				buf = append(buf, text...)
			case k == value.KindIRI:
				buf = append(append(append(buf, '<'), text...), '>')
			default:
				buf = append(tsvEsc.append(append(buf, '"'), text), '"')
			}
		}
		buf = e.rowDone(append(buf, '\n'), i)
	}
	e.buf = buf
}
