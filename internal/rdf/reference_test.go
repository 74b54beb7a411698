package rdf

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// refStore is the dictionary and reader as they were before term text
// moved into arenas and the map into a flat table: a map from text to
// ID, a heap string per term, and a line reader that allocates a string
// per line. It is the oracle the store and ReadNTriples are checked
// against.
type refStore struct {
	dict    map[string]ID
	terms   []string
	triples []Triple
}

func newRefStore() *refStore { return &refStore{dict: make(map[string]ID)} }

// Intern returns the ID for a term, creating it if needed.
func (s *refStore) Intern(term string) ID {
	if id, ok := s.dict[term]; ok {
		return id
	}
	term = strings.Clone(term)
	id := ID(len(s.terms))
	s.dict[term] = id
	s.terms = append(s.terms, term)
	return id
}

// Add appends a triple given as strings.
func (s *refStore) Add(sub, pred, obj string) {
	s.triples = append(s.triples, Triple{s.Intern(sub), s.Intern(pred), s.Intern(obj)})
}

// ReadNTriples is the reader as it was before it tokenized bytes. It loads N-Triples-style data into the store: one triple per
// line, `<s> <p> <o> .` with IRIs in angle brackets, blank nodes as
// _:label, and literals as quoted strings. Language tags and datatype
// annotations are accepted but NOT retained — the store is untyped text,
// so `"x"@en` stores as `x`. Comment lines (#) and blank lines are
// skipped. It returns the number of triple lines read, duplicates
// included.
func (s *refStore) ReadNTriples(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sub, rest, err := refReadTerm(line)
		if err != nil {
			return n, fmt.Errorf("rdf: line %d: %v", lineNo, err)
		}
		pred, rest, err := refReadTerm(rest)
		if err != nil {
			return n, fmt.Errorf("rdf: line %d: %v", lineNo, err)
		}
		obj, rest, err := refReadTerm(rest)
		if err != nil {
			return n, fmt.Errorf("rdf: line %d: %v", lineNo, err)
		}
		rest = strings.TrimSpace(rest)
		if rest != "." && rest != "" {
			return n, fmt.Errorf("rdf: line %d: trailing content %q", lineNo, rest)
		}
		s.Add(sub, pred, obj)
		n++
	}
	return n, sc.Err()
}

// refReadTerm consumes one term from the front of line, returning its store
// text and the remainder.
func refReadTerm(line string) (string, string, error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return "", "", fmt.Errorf("unexpected end of line")
	}
	switch line[0] {
	case '<':
		end := strings.IndexByte(line, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated IRI")
		}
		return line[1:end], line[end+1:], nil
	case '_':
		if !strings.HasPrefix(line, "_:") {
			return "", "", fmt.Errorf("bad blank node")
		}
		end := strings.IndexAny(line, " \t")
		if end < 0 {
			end = len(line)
		}
		label, rest := line[:end], line[end:]
		// A label cannot end with the statement terminator: in `_:c.` at
		// the end of a line (or with only whitespace after), the final
		// `.` closes the triple, not the label.
		if strings.HasSuffix(label, ".") && strings.TrimSpace(rest) == "" {
			label, rest = label[:len(label)-1], "."
		}
		return label, rest, nil
	case '"':
		// Find the closing quote, honoring escapes.
		i := 1
		var sb strings.Builder
		for i < len(line) {
			c := line[i]
			if c == '\\' && i+1 < len(line) {
				switch line[i+1] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				case 'u', 'U':
					// UCHAR escapes: \uXXXX and \UXXXXXXXX.
					digits := 4
					if line[i+1] == 'U' {
						digits = 8
					}
					hex := line[i+2:]
					if len(hex) < digits {
						return "", "", fmt.Errorf("truncated \\%c escape", line[i+1])
					}
					r, err := refParseHexRune(hex[:digits])
					if err != nil {
						return "", "", err
					}
					sb.WriteRune(r)
					i += 2 + digits
					continue
				default:
					sb.WriteByte(line[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
			i++
		}
		if i >= len(line) {
			return "", "", fmt.Errorf("unterminated literal")
		}
		rest := line[i+1:]
		// Skip language tag or datatype annotation.
		if strings.HasPrefix(rest, "@") {
			end := strings.IndexAny(rest, " \t")
			if end < 0 {
				end = len(rest)
			}
			rest = rest[end:]
		} else if strings.HasPrefix(rest, "^^<") {
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return "", "", fmt.Errorf("unterminated datatype IRI")
			}
			rest = rest[end+1:]
		}
		return sb.String(), rest, nil
	}
	return "", "", fmt.Errorf("unexpected term start %q", line[0])
}

// refParseHexRune decodes a fixed-width hex code point.
func refParseHexRune(hex string) (rune, error) {
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

// checkReference reads src into a Store and into the oracle and fails t
// unless they agree on the count, the error text, every term in ID
// order, the distinct triples and the ID Lookup finds for every term.
func checkReference(t *testing.T, src []byte) {
	t.Helper()
	st, ref := NewStore(), newRefStore()
	n, err := st.ReadNTriples(bytes.NewReader(src))
	rn, rerr := ref.ReadNTriples(bytes.NewReader(src))
	if n != rn || fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("ReadNTriples = %d, %v; the reference read %d, %v\ninput: %q", n, err, rn, rerr, src)
	}
	sn := st.Freeze()
	if sn.NumTerms() != len(ref.terms) {
		t.Fatalf("%d terms, the reference has %d\ninput: %q", sn.NumTerms(), len(ref.terms), src)
	}
	for id, term := range ref.terms {
		if got := sn.TermOf(ID(id)); got != term {
			t.Fatalf("TermOf(%d) = %q, the reference has %q\ninput: %q", id, got, term, src)
		}
		if got, ok := sn.Lookup(term); !ok || got != ref.dict[term] {
			t.Fatalf("Lookup(%q) = %d, %v; the reference has %d\ninput: %q", term, got, ok, ref.dict[term], src)
		}
	}
	want := slices.Clone(ref.triples)
	slices.SortFunc(want, func(a, b Triple) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
	})
	want = slices.Compact(want)
	if got := sn.Triples(); !slices.Equal(got, want) {
		t.Fatalf("Triples() = %v, the reference has %v\ninput: %q", got, want, src)
	}
}

// referenceSeeds are inputs on the edges of the byte reader: escapes
// (several to a line, and lines of them in a row), Unicode space, CRLF, comments, the `_:c.` terminator, tags, datatypes,
// empty literals, errors and a line past the scanner's first buffer.
func referenceSeeds() []string {
	long := "<http://ex/s> <http://ex/p> \"" + strings.Repeat("y", 70<<10) + "\" .\n"
	return []string{
		"<http://ex/a> <http://ex/p> <http://ex/b> .\n<http://ex/a> <http://ex/p> <http://ex/c> .\n<http://ex/a> <http://ex/p> <http://ex/b> .\n",
		`<http://ex/a> <http://ex/p> "café \U0001F600 A" .`,
		`<http://ex/a> <http://ex/p> "esc\"aped\nline\ttab\r\\ back\q" .`,
		"\"s\\u00e9\" <http://ex/p> \"o\\tx\" .\n\"s\\n2\" \"p\\\"\" \"a longer escaped literal \\U0001F600 than the first\" .\n\"\\\\\" <http://ex/p> \"s\\u00e9\" .\n",
		`<http://ex/a> <http://ex/p> "bad \u00G1" .`,
		`<http://ex/a> <http://ex/p> "trunc \u12" .`,
		`<http://ex/a> <http://ex/p> "surrogate \uD800" .`,
		"<http://ex/a> <http://ex/p> <http://ex/b> .\n",
		"<http://ex/a> <http://ex/p>\u0085\"x\" .\u0085\n <http://ex/b> <http://ex/p> _:c .\n_:d <http://ex/p> \"y\"@en\u0085<http://ex/z> .\n",
		"<http://ex/a>\u00a0<http://ex/p> \"x\"\u00a0.\u00a0\n\u00a0<http://ex/b> <http://ex/p> _:c.\u00a0\n_:d\u00a0<http://ex/p> <http://ex/e> .\n",
		"\u00a0\n\u0085# a comment after Unicode space\n\v<http://ex/a> <http://ex/p> <http://ex/b> .\f\n\u2003\u00a0\n",
		"<http://ex/a> <http://ex/p> <http://ex/b> .\r\n# comment\r\n\r\n   \n\t# indented comment\n<http://ex/b> <http://ex/p> \"crlf\" .\r\n",
		"<http://ex/a> <http://ex/b> _:c.\n_:c. <http://ex/p> _:a.b .\n<http://ex/a> <http://ex/b> _:c.  \n_:d.\t<http://ex/p> _:e\t.\n",
		"<http://ex/a> <http://ex/label> \"tag\"@en .\n<http://ex/a> <http://ex/age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n<http://ex/a> <http://ex/e> \"\" .\n<http://ex/a> <http://ex/f> \"\"@en-GB.\n",
		"<http://ex/a><http://ex/p>\"packed\"@x<http://ex/q>.\n",
		"<http://ex/a> <http://ex/p>\n",
		"<http://ex/a <http://ex/p> <http://ex/b> .\n",
		"<http://ex/a> <http://ex/p> \"unterminated .\n",
		"<http://ex/a> <http://ex/p> <http://ex/b> junk\n",
		"<http://ex/a> <http://ex/p> \"x\"^^<http://ex/open .\n",
		"<http://ex/a> <http://ex/p> x .\n",
		"_x <http://ex/p> <http://ex/b> .\n",
		"<http://ex/a> <http://ex/p> <http://ex/b> . .\n",
		"<http://ex/a> <http://ex/p> \"trailing backslash\\",
		"<http://ex/a> <http://ex/p> <http://ex/b>  ",
		long + long + "<http://ex/s> <http://ex/p> <http://ex/" + strings.Repeat("z", 2<<10) + "> .\n",
	}
}

func TestReadNTriplesMatchesReference(t *testing.T) {
	for _, src := range referenceSeeds() {
		checkReference(t, []byte(src))
	}
	// A graph shaped like the bench dataset: IRI edges grouped by
	// subject, then a name per node and a typed year per paper.
	var b strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "<http://gmark.bib/paper/%d> <http://gmark.bib/p/cites> <http://gmark.bib/paper/%d> .\n", i, (i*7)%3000)
		fmt.Fprintf(&b, "<http://gmark.bib/paper/%d> <http://gmark.bib/p/authoredBy> <http://gmark.bib/researcher/%d> .\n", i, i%500)
	}
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "<http://gmark.bib/paper/%d> <http://gmark.bib/p/name> \"paper %d\" .\n", i, i)
		fmt.Fprintf(&b, "<http://gmark.bib/paper/%d> <http://gmark.bib/p/year> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", i, 1960+i/50)
	}
	checkReference(t, []byte(b.String()))
}
