// Command sparqllint runs the static-analysis pass suite over SPARQL
// queries: a single query (-query), a query log file (-log, plain or
// Apache format), or — with neither — the calibrated synthetic corpus
// the analytics pipeline uses, summarized per diagnostic code.
//
// Single-query mode prints one line per diagnostic and exits 1 when
// anything was found, vet-style. Log and corpus mode print a summary
// table: per code, the number of diagnostics, the number of queries
// carrying at least one, and the share of the parsed workload. With
// -ntriples, individual diagnostics are emitted as N-Triples on
// stdout (one blank node per finding), machine-readable for loading
// back into any RDF store.
//
// Usage:
//
//	sparqllint -query 'SELECT * WHERE { ?s ?p ?o . FILTER(false) }'
//	sparqllint -log access.log -format apache
//	sparqllint -scale 0.0001 -seed 2017
//	sparqllint -log queries.txt -ntriples
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sparqlog/internal/core"
	"sparqlog/internal/lint"
	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

func main() {
	query := flag.String("query", "", "lint this query text and exit")
	logFile := flag.String("log", "", "lint every query of this log file")
	format := flag.String("format", "auto", "log file format: plain, or apache (alias auto: a line without a query= parameter is kept as it is)")
	scale := flag.Float64("scale", 0.0001, "synthetic corpus scale (no -query/-log)")
	seed := flag.Int64("seed", 2017, "synthetic corpus seed")
	ntriples := flag.Bool("ntriples", false, "emit individual diagnostics as N-Triples")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sparqllint: unexpected argument %q\nusage: sparqllint [-query text | -log file [-format auto]] [-scale 0.0001] [-seed 2017] [-ntriples]\n", flag.Arg(0))
		os.Exit(2)
	}

	var lf core.LogFormat
	switch *format {
	case "auto", "apache":
		lf = core.FormatApache
	case "plain":
		lf = core.FormatPlain
	default:
		fmt.Fprintf(os.Stderr, "sparqllint: unknown format %q\n", *format)
		os.Exit(2)
	}

	switch {
	case *query != "":
		os.Exit(lintOne(*query, *ntriples))
	case *logFile != "":
		f, err := os.Open(*logFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqllint:", err)
			os.Exit(1)
		}
		defer f.Close()
		sum := newSummary(*ntriples)
		sc := core.NewEntryScanner(f, lf)
		for sc.Scan() {
			sum.add(sc.Entry())
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "sparqllint:", err)
			os.Exit(1)
		}
		sum.print(*logFile)
	default:
		sum := newSummary(*ntriples)
		for _, spec := range loggen.CorpusSpecs(*scale, *seed) {
			loggen.GenerateStream(spec.Profile, spec.N, spec.Seed, func(e string) bool {
				sum.add(e)
				return true
			})
		}
		sum.print(fmt.Sprintf("synthetic corpus (scale %g, seed %d)", *scale, *seed))
	}
}

// lintOne lints a single query and reports vet-style; the exit code
// says whether anything was found.
func lintOne(src string, ntriples bool) int {
	q, err := sparql.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparqllint: parse error:", err)
		return 2
	}
	r := lint.Run(q)
	if ntriples {
		n := 0
		emitNTriples(os.Stdout, r.Diagnostics, &n, src)
	} else {
		for _, d := range r.Diagnostics {
			fmt.Println(d)
			if d.Snippet != "" {
				fmt.Println("  " + d.Snippet)
			}
		}
		if r.Empty {
			fmt.Println("note: the WHERE clause is statically empty (no dataset yields a solution)")
		}
	}
	if len(r.Diagnostics) == 0 {
		return 0
	}
	return 1
}

// summary aggregates lint results over a stream of log entries, parsed
// on one Parser so that a prologue repeated from the entry before is
// compared, not lexed.
type summary struct {
	parser   sparql.Parser
	entries  int
	parsed   int
	empty    int
	diags    map[string]int
	queries  map[string]int
	flagged  int
	ntriples bool
	emitted  int // blank-node counter across the whole stream
}

func newSummary(ntriples bool) *summary {
	return &summary{
		diags:    make(map[string]int),
		queries:  make(map[string]int),
		ntriples: ntriples,
	}
}

func (s *summary) add(raw string) {
	s.entries++
	q, err := s.parser.Parse(raw)
	if err != nil {
		return
	}
	s.parsed++
	r := lint.Run(q)
	if r.Empty {
		s.empty++
	}
	if len(r.Diagnostics) == 0 {
		return
	}
	s.flagged++
	for _, d := range r.Diagnostics {
		s.diags[d.Code]++
	}
	for _, code := range r.Codes() {
		s.queries[code]++
	}
	if s.ntriples {
		emitNTriples(os.Stdout, r.Diagnostics, &s.emitted, raw)
	}
}

// print renders the per-code summary table (to stderr in -ntriples
// mode, keeping stdout pure RDF).
func (s *summary) print(source string) {
	out := os.Stdout
	if s.ntriples {
		out = os.Stderr
	}
	fmt.Fprintf(out, "sparqllint: %s\n", source)
	fmt.Fprintf(out, "  entries %d, parsed %d, flagged %d (%s), statically empty %d (%s)\n\n",
		s.entries, s.parsed, s.flagged, pct(s.flagged, s.parsed), s.empty, pct(s.empty, s.parsed))
	fmt.Fprintf(out, "  %-8s %-9s %-28s %10s %10s %8s\n", "Code", "Severity", "Pass", "Diags", "Queries", "%Q")
	for _, p := range lint.Passes() {
		if s.diags[p.Code] == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-8s %-9s %-28s %10d %10d %8s\n",
			p.Code, p.Severity, p.Name, s.diags[p.Code], s.queries[p.Code], pct(s.queries[p.Code], s.parsed))
	}
}

func pct(part, whole int) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}

// emitNTriples writes one blank node per diagnostic. n numbers the
// blank nodes across calls so a whole log shares one namespace.
func emitNTriples(w *os.File, ds []lint.Diagnostic, n *int, query string) {
	for _, d := range ds {
		id := fmt.Sprintf("_:d%d", *n)
		*n++
		fmt.Fprintf(w, "%s <urn:sparqllint:code> %s .\n", id, ntLiteral(d.Code))
		fmt.Fprintf(w, "%s <urn:sparqllint:severity> %s .\n", id, ntLiteral(d.Severity.String()))
		fmt.Fprintf(w, "%s <urn:sparqllint:path> %s .\n", id, ntLiteral(d.Path))
		fmt.Fprintf(w, "%s <urn:sparqllint:message> %s .\n", id, ntLiteral(d.Message))
		if d.Snippet != "" {
			fmt.Fprintf(w, "%s <urn:sparqllint:snippet> %s .\n", id, ntLiteral(d.Snippet))
		}
		fmt.Fprintf(w, "%s <urn:sparqllint:query> %s .\n", id, ntLiteral(query))
	}
}

// ntLiteral renders a string as an N-Triples literal, escaping per the
// grammar's ECHAR production.
func ntLiteral(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
