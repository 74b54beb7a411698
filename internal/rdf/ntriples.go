package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ReadNTriples loads N-Triples-style data into the store: one triple per
// line, `<s> <p> <o> .` with IRIs in angle brackets, blank nodes as
// _:label, and literals as quoted strings. Language tags and datatype
// annotations are accepted but NOT retained — the store is untyped text,
// so `"x"@en` stores as `x`. Comment lines (#) and blank lines are
// skipped. It returns the number of triple lines read, duplicates
// included.
//
// A line is read in the scanner's buffer and its terms are interned
// from it, so a line whose terms are all known allocates nothing.
func (s *Store) ReadNTriples(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	lineNo := 0
	var buf []byte
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		buf = buf[:0]
		sub, pred, obj, err := readLine(line, &buf)
		if err != nil {
			return n, fmt.Errorf("rdf: line %d: %v", lineNo, err)
		}
		s.AddIDs(s.internBytes(sub), s.internBytes(pred), s.internBytes(obj))
		n++
	}
	return n, sc.Err()
}

// readLine parses a trimmed, non-comment line into its three terms'
// store text, decoding escaped literals onto the end of *buf.
func readLine(line []byte, buf *[]byte) (sub, pred, obj []byte, err error) {
	sub, rest, err := readTerm(line, buf)
	if err != nil {
		return
	}
	pred, rest, err = readTerm(rest, buf)
	if err != nil {
		return
	}
	obj, rest, err = readTerm(rest, buf)
	if err != nil {
		return
	}
	if rest = bytes.TrimSpace(rest); len(rest) != 0 && string(rest) != "." {
		err = fmt.Errorf("trailing content %q", rest)
	}
	return
}

// readTerm consumes one term from the front of line, returning its store
// text and the remainder. The text is a subslice of line unless it is a
// literal with escapes, which is decoded onto the end of *buf.
func readTerm(line []byte, buf *[]byte) ([]byte, []byte, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, nil, fmt.Errorf("unexpected end of line")
	}
	switch line[0] {
	case '<':
		end := bytes.IndexByte(line, '>')
		if end < 0 {
			return nil, nil, fmt.Errorf("unterminated IRI")
		}
		return line[1:end], line[end+1:], nil
	case '_':
		if !bytes.HasPrefix(line, []byte("_:")) {
			return nil, nil, fmt.Errorf("bad blank node")
		}
		end := bytes.IndexAny(line, " \t")
		if end < 0 {
			end = len(line)
		}
		label, rest := line[:end], line[end:]
		// A label cannot end with the statement terminator: in `_:c.` at
		// the end of a line (or with only whitespace after), the final
		// `.` closes the triple, not the label.
		if bytes.HasSuffix(label, []byte(".")) && len(bytes.TrimSpace(rest)) == 0 {
			label, rest = label[:len(label)-1], label[len(label)-1:]
		}
		return label, rest, nil
	case '"':
		// Find the closing quote. Without a backslash before it, the
		// literal is the bytes between the quotes.
		i := bytes.IndexByte(line[1:], '"') + 1
		var lit []byte
		if i > 0 && bytes.IndexByte(line[1:i], '\\') < 0 {
			lit = line[1:i]
		} else {
			start := len(*buf)
			for i = 1; i < len(line); {
				c := line[i]
				if c == '\\' && i+1 < len(line) {
					switch line[i+1] {
					case 'n':
						*buf = append(*buf, '\n')
					case 't':
						*buf = append(*buf, '\t')
					case 'r':
						*buf = append(*buf, '\r')
					case '"':
						*buf = append(*buf, '"')
					case '\\':
						*buf = append(*buf, '\\')
					case 'u', 'U':
						// UCHAR escapes: \uXXXX and \UXXXXXXXX.
						digits := 4
						if line[i+1] == 'U' {
							digits = 8
						}
						hex := line[i+2:]
						if len(hex) < digits {
							return nil, nil, fmt.Errorf("truncated \\%c escape", line[i+1])
						}
						r, err := parseHexRune(hex[:digits])
						if err != nil {
							return nil, nil, err
						}
						*buf = utf8.AppendRune(*buf, r)
						i += 2 + digits
						continue
					default:
						*buf = append(*buf, line[i+1])
					}
					i += 2
					continue
				}
				if c == '"' {
					break
				}
				*buf = append(*buf, c)
				i++
			}
			if i >= len(line) {
				return nil, nil, fmt.Errorf("unterminated literal")
			}
			lit = (*buf)[start:]
		}
		rest := line[i+1:]
		// Skip language tag or datatype annotation.
		if bytes.HasPrefix(rest, []byte("@")) {
			end := bytes.IndexAny(rest, " \t")
			if end < 0 {
				end = len(rest)
			}
			rest = rest[end:]
		} else if bytes.HasPrefix(rest, []byte("^^<")) {
			end := bytes.IndexByte(rest, '>')
			if end < 0 {
				return nil, nil, fmt.Errorf("unterminated datatype IRI")
			}
			rest = rest[end+1:]
		}
		return lit, rest, nil
	}
	return nil, nil, fmt.Errorf("unexpected term start %q", line[0])
}

// parseHexRune decodes a fixed-width hex code point.
func parseHexRune(hex []byte) (rune, error) {
	var r rune
	for i := 0; i < len(hex); i++ {
		c := hex[i]
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad hex digit %q in UCHAR escape", c)
		}
		r = r<<4 | d
	}
	if r > utf8.MaxRune || (r >= 0xD800 && r <= 0xDFFF) {
		return 0, fmt.Errorf("UCHAR escape out of range: %#x", r)
	}
	return r, nil
}

// WriteNTriples serializes the snapshot as N-Triples, in SPO order,
// writing IRIs in angle brackets and everything else as plain literals
// (the dictionary does not retain term kinds, so the heuristic brackets
// terms that look like IRIs). Terms whose text cannot survive the IRI or
// blank-node syntax (embedded whitespace, angle brackets, quotes) are
// written as literals, so Write -> Read round-trips the term text
// exactly.
func (sn *Snapshot) WriteNTriples(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range sn.Triples() {
		if err := writeTerm(bw, sn.TermOf(t.S)); err != nil {
			return err
		}
		bw.WriteByte(' ')
		if err := writeTerm(bw, sn.TermOf(t.P)); err != nil {
			return err
		}
		bw.WriteByte(' ')
		if err := writeTerm(bw, sn.TermOf(t.O)); err != nil {
			return err
		}
		if _, err := bw.WriteString(" .\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// termSafe reports whether the term text can be emitted verbatim inside
// IRI brackets or as a blank-node label without the reader re-tokenizing
// it differently.
func termSafe(term string, blank bool) bool {
	for i := 0; i < len(term); i++ {
		switch c := term[i]; {
		case c <= ' ' || c == 0x7f: // control chars and whitespace
			return false
		case c == '<' || c == '>' || c == '"':
			return false
		case blank && (c == '.' || c == '\\'):
			// Dots are legal mid-label but ambiguous at the boundary and
			// backslashes never un-escape; quote such labels instead.
			return false
		}
	}
	return true
}

func writeTerm(w *bufio.Writer, term string) error {
	if strings.HasPrefix(term, "_:") && termSafe(term[2:], true) {
		_, err := w.WriteString(term)
		return err
	}
	looksIRI := strings.Contains(term, "://") || strings.HasPrefix(term, "urn:") || strings.HasPrefix(term, "mailto:")
	if looksIRI && termSafe(term, false) {
		w.WriteByte('<')
		w.WriteString(term)
		return w.WriteByte('>')
	}
	w.WriteByte('"')
	for i := 0; i < len(term); i++ {
		switch c := term[i]; c {
		case '"':
			w.WriteString(`\"`)
		case '\\':
			w.WriteString(`\\`)
		case '\n':
			w.WriteString(`\n`)
		case '\r':
			w.WriteString(`\r`)
		case '\t':
			w.WriteString(`\t`)
		default:
			w.WriteByte(c)
		}
	}
	return w.WriteByte('"')
}
