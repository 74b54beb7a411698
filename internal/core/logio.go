package core

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strings"
)

// Log formats. Real endpoint logs arrive in several shapes: plain text
// (one query per line), TSV exports (query in some column), and Apache
// access logs whose GET /sparql?query=... lines carry URL-encoded
// queries — the USEWOD shape the paper's Section 2 cleaning handles.
type LogFormat int

// Supported log formats.
const (
	// FormatApache, the zero value, extracts and URL-decodes the query=
	// parameter of request lines. A line without one, or whose parameter
	// holds a malformed escape, is kept verbatim (and dropped by
	// cleaning if it is not a query), so a log that mixes request lines
	// and plain queries reads as both.
	FormatApache LogFormat = iota
	// FormatPlain treats every line as one query.
	FormatPlain
)

// EntryScanner streams decoded log entries from a reader one at a time,
// so corpus-scale logs never have to be materialized as a []string. Blank
// lines are skipped; lines longer than 16 MiB are rejected.
type EntryScanner struct {
	sc     *bufio.Scanner
	format LogFormat
	entry  string
	buf    []byte // the decoded entry, before it is copied to entry
}

// NewEntryScanner returns a scanner over r in the given format.
func NewEntryScanner(r io.Reader, format LogFormat) *EntryScanner {
	return &EntryScanner{sc: newLineScanner(r), format: format}
}

// newLineScanner returns the line scanner every log reader uses: lines
// of up to 16 MiB, read in 64 KiB blocks. Its buffer grows only to hold
// a longer line.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	return sc
}

// Scan advances to the next non-blank entry, reporting false at EOF or on
// a read error (see Err).
func (s *EntryScanner) Scan() bool {
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		s.buf = appendEntry(s.buf[:0], line, s.format)
		s.entry = string(s.buf)
		return true
	}
	return false
}

// Entry returns the entry read by the last successful Scan.
func (s *EntryScanner) Entry() string { return s.entry }

// Err returns the first read error, if any.
func (s *EntryScanner) Err() error { return s.sc.Err() }

// ReadLog reads all log entries from r in the given format. Prefer
// EntryScanner (or StreamAnalyzer) for logs too large to hold in memory.
func ReadLog(r io.Reader, format LogFormat) ([]string, error) {
	sc := NewEntryScanner(r, format)
	var out []string
	for sc.Scan() {
		out = append(out, sc.Entry())
	}
	return out, sc.Err()
}

// DecodeEntry normalizes one raw log line into query text per the
// format, as appendEntry does; a line it keeps is returned as it is.
func DecodeEntry(line string, format LogFormat) string {
	if out, ok := appendQuery(nil, line, format); ok {
		return string(out)
	}
	return line
}

// appendEntry appends the query text of one raw log line, decoded per
// the format, to dst.
func appendEntry(dst, line []byte, format LogFormat) []byte {
	if out, ok := appendQuery(dst, line, format); ok {
		return out
	}
	return append(dst, line...)
}

// appendQuery appends the percent-decoded query= URL parameter of line
// to dst. It reports ok=false, and returns dst as it was, when the line
// is to be kept as it is: under FormatPlain, without the parameter, or
// with a malformed escape in it.
func appendQuery[S string | []byte](dst []byte, line S, format LogFormat) ([]byte, bool) {
	i := -1
	if format != FormatPlain {
		switch l := any(line).(type) {
		case string:
			i = strings.Index(l, "query=")
		case []byte:
			i = bytes.Index(l, []byte("query="))
		}
	}
	if i < 0 {
		return dst, false
	}
	// & ends the parameter, and a space or a quote the URL (Apache log
	// format: "GET /sparql?query=... HTTP/1.1").
	param := line[i+len("query="):]
	n := 0
	for n < len(param) && param[n] != '&' && param[n] != ' ' && param[n] != '"' {
		n++
	}
	return appendURLDecoded(slices.Grow(dst, n), param[:n])
}

// appendURLDecoded appends s percent-decoded to dst, treating '+' as
// space (query strings). It reports ok=false, and returns dst as it
// was, for a malformed escape.
func appendURLDecoded[S string | []byte](dst []byte, s S) ([]byte, bool) {
	out := dst
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+':
			out = append(out, ' ')
		case '%':
			if i+2 >= len(s) {
				return dst, false
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return dst, false
			}
			out = append(out, hi<<4|lo)
			i += 2
		default:
			out = append(out, c)
		}
	}
	return out, true
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
