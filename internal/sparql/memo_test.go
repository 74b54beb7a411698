package sparql_test

import (
	"reflect"
	"strings"
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// boilerplate is the loggen corpus's 7-prefix block; its first two
// lines are the prologue of the corpus's other texts.
const boilerplate = "PREFIX dbo: <http://dbpedia.org/ontology/> PREFIX dbr: <http://dbpedia.org/resource/> " +
	"PREFIX foaf: <http://xmlns.com/foaf/0.1/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> " +
	"PREFIX dc: <http://purl.org/dc/elements/1.1/> PREFIX skos: <http://www.w3.org/2004/02/skos/core#> " +
	"PREFIX owl: <http://www.w3.org/2002/07/owl#> "

const twoPrefixes = "PREFIX dbo: <http://dbpedia.org/ontology/> PREFIX dbr: <http://dbpedia.org/resource/> "

// reuseChecker parses texts one after another on one Parser and fails
// the test unless each parse is exactly a fresh Parser's: the same AST
// (reflect.DeepEqual) and the same error. With TestHookPoison set (see
// TestMain), it also reads the previous text's tree again, which the
// later parse must have poisoned: its root, and each of its triples.
type reuseChecker struct {
	t       *testing.T
	p       sparql.Parser
	prev    string
	prevQ   *sparql.Query
	triples []*sparql.TriplePattern // prevQ's
}

func (c *reuseChecker) parse(src string) {
	c.t.Helper()
	got, gerr := c.p.Parse(src)
	want, werr := sparql.Parse(src)
	if !reflect.DeepEqual(gerr, werr) || errText(gerr) != errText(werr) {
		c.t.Fatalf("after %q, Parse(%q):\n error %v\n fresh %v", c.prev, src, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		c.t.Fatalf("after %q, Parse(%q):\n AST   %s\n fresh %s", c.prev, src, dump(got), dump(want))
	}
	if c.prevQ != nil && sparql.TestHookPoison.Load() {
		if !strings.Contains(c.prevQ.String(), sparql.RecycledIRI) {
			c.t.Fatalf("after Parse(%q), the tree of the text before it, %q, is not poisoned: %s", src, c.prev, c.prevQ)
		}
		for _, tp := range c.triples {
			if tp.S.Value != sparql.RecycledIRI || tp.O.Value != sparql.RecycledIRI {
				c.t.Fatalf("after Parse(%q), a triple of the text before it, %q, is not poisoned: %+v", src, c.prev, *tp)
			}
		}
	}
	c.prev, c.prevQ, c.triples = src, got, nil
	if got != nil {
		c.triples = got.Triples()
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func dump(q *sparql.Query) string {
	if q == nil {
		return "<nil>"
	}
	return q.String()
}

// TestPrologueMemo replays every distinct loggen text at scale 1e-4,
// seeds 1 and 2017, in log order through one Parser, then sequences
// that probe the prologue memo's edges, and checks each parse against a
// fresh one.
func TestPrologueMemo(t *testing.T) {
	if !testing.Short() {
		c := &reuseChecker{t: t}
		seen := map[string]bool{}
		for _, seed := range []int64{1, 2017} {
			for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
				for _, e := range ds.Entries {
					if !seen[e] {
						seen[e] = true
						c.parse(e)
					}
				}
			}
		}
		t.Logf("%d distinct corpus texts parse as on a fresh parser", len(seen))
	}
	const a, b = "PREFIX a: <http://a/> ", "PREFIX b: <http://b/> "
	body := "SELECT * WHERE { ?s a:p ?o }"
	many := ""
	for i := 0; i < 20; i++ {
		many += "PREFIX p" + strings.Repeat("x", i) + ": <http://p/" + strings.Repeat("y", i) + "> "
	}
	cases := map[string][]string{
		"memo ends mid-IRI": {
			a + body, "PREFIX a: <http://a/b> " + body, a + body, "PREFIX a: <http://a/>" + body,
			"PREFIX a: <http://a/>> " + body, "PREFIX a: <http://a/", a,
		},
		"text shorter than the memo": {
			a + b + body, a, "PREFIX a: <http://a/> PREFIX b: <http://b", a + b, a + "PREFIX", "PREFIX a: <http://a/",
			"PREFIX a:", "PREFIX", "", a + b + body,
		},
		"BASE around the PREFIX lines": {
			"BASE <http://x/> " + a + body, a + "BASE <http://x/> " + b + body, a + "BASE <http://y/> " + b + body,
			a + b + "BASE <http://x/> " + body, a + b + body, a + b + "BASE <http://x/> " + body,
			"BASE <http://x/> " + a + b + body, a + "BASE " + b + body, a + b + "BASE <http://x/> BASE <http://z/> " + body,
		},
		"comments and white space": {
			a + "# c\n" + b + body, a + "# c\n" + b + body, a + "# d\n" + b + body, a + "#" + b + "\n" + body,
			"PREFIX a: <http://a/>\n\tPREFIX b: <http://b/>\r\n" + body, "PREFIX a:\n<http://a/> " + body,
			"PREFIX a: # <http://q/>\n<http://a/> " + body, "# " + a + "\n" + a + body, a + "# open comment",
		},
		"redeclared and empty prefixes": {
			"PREFIX : <http://e/> " + a + "PREFIX a: <http://a2/> SELECT * { ?s :p a:o }",
			"PREFIX : <http://e/> " + a + "PREFIX a: <http://a2/> SELECT * { ?s :p a:o }",
			"PREFIX : <http://e/> " + a + "SELECT * { ?s :p a:o }", "PREFIX : <http://f/> SELECT * { ?s :p ?o }",
			"PREFIX : <http://f/> PREFIX : <http://f/> SELECT * { ?s :p ?o }", "PREFIX  : <http://f/> " + body,
		},
		"a failure after a reused prologue": {
			boilerplate + body, boilerplate + "SELECT * WHERE {", boilerplate + "PREFIX x <http://x/> " + body,
			boilerplate + "FOO", boilerplate + body + " }", boilerplate + "\nSELECT * WHERE { ?s ?p }", boilerplate + body,
			twoPrefixes + "PREFIX dbr <x> " + body, boilerplate + body,
		},
		"2-prefix and 7-prefix texts alternating": {
			twoPrefixes + body, boilerplate + body, twoPrefixes + body, boilerplate + "ASK { ?s a:p ?o }",
			twoPrefixes + "ASK { ?s a:p ?o }", boilerplate + body, boilerplate + body, twoPrefixes + body,
		},
		"more declarations than the memo holds": {
			many + body, many + body, many[:len(many)-30] + body, many + a + body, many + a + body, many[:100] + body,
		},
		"no prologue": {
			body, a + body, body, "select * { ?s ?p ?o }", a + body,
		},
	}
	for name, texts := range cases {
		t.Run(name, func(t *testing.T) {
			c := &reuseChecker{t: t}
			for _, src := range texts {
				c.parse(src)
			}
			// Backwards too, so that each text also follows the one after it.
			for i := len(texts) - 1; i >= 0; i-- {
				c.parse(texts[i])
			}
		})
	}
}

// TestPrologueMemoAllocs pins the memo's saving: a reused Parser that
// meets a prologue it has just read shares its declarations, one
// allocation fewer than a parse that must lex them (the same text after
// one with other IRIs). Its tree comes from recycled slabs, so the
// repeated prologue costs nothing at all. A fresh Parser (the
// package-level Parse, what a serving endpoint runs on a text's first
// sighting) pays nothing for the memo, and makes room for the seven
// declarations at once: 8 allocations, the declarations' scratch and
// their copy, one chunk for each of the five node types of the tree (a
// query, a SELECT list, a group, its elements, a triple) and one for
// the parser's stacks.
func TestPrologueMemoAllocs(t *testing.T) {
	unpoisoned(t)
	text := boilerplate + "SELECT ?v0 ?v1 WHERE { ?v0 foaf:knows ?v1 }"
	other := strings.ReplaceAll(text, "http://", "https://")
	var p sparql.Parser
	if _, err := p.Parse(text); err != nil {
		t.Fatal(err)
	}
	repeated := testing.AllocsPerRun(100, func() { p.Parse(text) })
	lexed := testing.AllocsPerRun(100, func() { p.Parse(other); p.Parse(text) }) / 2
	fresh := testing.AllocsPerRun(100, func() { sparql.Parse(text) })
	if repeated != 0 || lexed != 1 || fresh != 8 {
		t.Errorf("a repeated prologue costs %v allocations, a lexed one %v, a fresh parse %v; want 0, 1, 8",
			repeated, lexed, fresh)
	}
}

// TestQueryFormError pins the error of a text that does not start a
// query, which a noise line fails with at its first token: its bytes,
// and its cost, the error and its message.
func TestQueryFormError(t *testing.T) {
	for src, want := range map[string]string{
		"GET /index.html HTTP/1.1":      `sparql: syntax error at 1:1: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "GET"`,
		"":                              `sparql: syntax error at 1:1: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found ""`,
		"  \n 'caf\u00e9\\t\x01' x":     `sparql: syntax error at 2:2: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "café\t\x01"`,
		"PREFIX a: <http://a/>\nFOO {}": `sparql: syntax error at 2:1: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "FOO"`,
		"BASE <x> 42":                   `sparql: syntax error at 1:10: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "42"`,
		"\"\xff\xfe\" SELECT":           `sparql: syntax error at 1:1: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "\xff\xfe"`,
		"SELEC * {}":                    `sparql: syntax error at 1:1: expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "SELEC"`,
	} {
		if _, err := sparql.Parse(src); errText(err) != want {
			t.Errorf("Parse(%q) = %v\n want %s", src, err, want)
		}
	}
	unpoisoned(t)
	var p sparql.Parser
	for _, src := range []string{"GET /index.html HTTP/1.1", "127.0.0.1 - - [10/Oct/2000]"} {
		if n := testing.AllocsPerRun(100, func() { p.Parse(src) }); n != 2 {
			t.Errorf("Parse(%q) allocates %v objects, want 2 (the error and its message)", src, n)
		}
	}
}

// FuzzParserReuse is the reused Parser's differential: parsing a and
// then b on one Parser gives b exactly what a fresh Parser gives it, the
// same AST and the same error, prologue memo and recycled slabs
// notwithstanding, and poisons a's tree.
func FuzzParserReuse(f *testing.F) {
	body := "SELECT * WHERE { ?s dbo:p ?o }"
	for _, pair := range [][2]string{
		{"PREFIX a: <http://a/> " + body, "PREFIX a: <http://a/b> " + body},
		{"PREFIX a: <http://a/b> " + body, "PREFIX a: <http://a/> " + body},
		{boilerplate + body, "PREFIX dbo: <http://dbpedia.org/ontology/>"},
		{boilerplate + body, twoPrefixes + body},
		{twoPrefixes + body, boilerplate + body},
		{"PREFIX a: <http://a/> BASE <http://x/> PREFIX b: <http://b/> " + body, "PREFIX a: <http://a/> BASE <http://y/> PREFIX b: <http://b/> " + body},
		{"BASE <http://x/> " + boilerplate + body, boilerplate + "BASE <http://x/> " + body},
		{"PREFIX a: <http://a/> # c\nPREFIX b: <http://b/> " + body, "PREFIX a: <http://a/> # d\nPREFIX b: <http://b/> " + body},
		{"PREFIX : <http://e/> PREFIX a: <http://a/> PREFIX a: <http://a2/> " + body, "PREFIX : <http://e/> PREFIX a: <http://a/> " + body},
		{boilerplate + body, boilerplate + "SELECT * WHERE {"},
		{boilerplate + "FOO", boilerplate + body},
		{"GET /index.html HTTP/1.1", boilerplate + body},
		{"", ""},
	} {
		f.Add(pair[0], pair[1])
	}
	for _, s := range parseSeeds {
		f.Add(boilerplate+s, s)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		c := &reuseChecker{t: t}
		c.parse(a)
		c.parse(b)
	})
}
