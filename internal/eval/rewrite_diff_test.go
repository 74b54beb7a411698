package eval

import (
	"strings"
	"testing"

	"sparqlog/internal/lint"
	"sparqlog/internal/sparql"
)

// rewriteCorpus holds equality-filter queries over socialStore. The
// data is IRI-valued on the collapsed positions, so value equality and
// term equality coincide and the rewrite must be exact.
var rewriteCorpus = []string{
	`SELECT ?a ?b WHERE { ?a <urn:knows> ?b . ?a <urn:tag> ?t . FILTER(?t = ?g) . ?x <urn:tag> ?g }`,
	`SELECT ?a ?c WHERE { ?a <urn:knows> ?b . ?c <urn:knows> ?b2 . FILTER(?b = ?b2) }`,
	`SELECT * WHERE { ?a <urn:knows> ?b . ?a <urn:special> ?c . FILTER(?b = ?c) }`,
	`SELECT ?a WHERE { ?a <urn:knows> ?b . ?b <urn:knows> ?c . FILTER(?a = ?c) }`,
	`ASK { ?a <urn:tag> ?t . ?b <urn:tag> ?u . FILTER(?t = ?u) }`,
	// Not collapsible (?c escapes into the OPTIONAL on both sides):
	// must evaluate identically anyway.
	`SELECT * WHERE { ?a <urn:knows> ?b . ?a <urn:special> ?c . FILTER(?b = ?c) OPTIONAL { ?b <urn:age> ?c } }`,
	// Projection keeps the dropped variable visible.
	`SELECT ?b ?b2 WHERE { ?a <urn:knows> ?b . ?c <urn:knows> ?b2 . FILTER(?b = ?b2) }`,
	// ORDER BY over the dropped variable.
	`SELECT ?c WHERE { ?a <urn:knows> ?b . ?a <urn:special> ?c . FILTER(?b = ?c) } ORDER BY ?c`,
}

// TestCollapseEqualitiesDifferential proves the SQL007 rewrite
// preserves semantics: rewrite-enabled evaluation must match both the
// default columnar path and the legacy path, row for row.
func TestCollapseEqualitiesDifferential(t *testing.T) {
	sn := socialStore()
	rewritten := 0
	for _, src := range rewriteCorpus {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, ok := lint.CollapseEqualities(q); ok {
			rewritten++
		}
		plain, perr := QueryWithLimits(sn, q, Limits{})
		opt, oerr := QueryWithLimits(sn, q, Limits{CollapseEqualities: true})
		legacyOpt, lerr := QueryWithLimits(sn, q, Limits{CollapseEqualities: true, legacy: true})
		if (perr == nil) != (oerr == nil) || (perr == nil) != (lerr == nil) {
			t.Fatalf("error divergence on %q: plain=%v opt=%v legacy-opt=%v", src, perr, oerr, lerr)
		}
		if perr != nil {
			continue
		}
		for name, got := range map[string]*Result{"opt": opt, "legacy-opt": legacyOpt} {
			if plain.Bool != got.Bool {
				t.Fatalf("ASK diverges on %q (%s): %v vs %v", src, name, plain.Bool, got.Bool)
			}
			if strings.Join(plain.Vars, ",") != strings.Join(got.Vars, ",") {
				t.Fatalf("vars diverge on %q (%s): %v vs %v", src, name, plain.Vars, got.Vars)
			}
			a, b := sortedRows(plain), sortedRows(got)
			if len(a) != len(b) {
				t.Fatalf("row counts diverge on %q (%s): %d vs %d", src, name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rows diverge on %q (%s) at %d:\nplain: %q\nrewritten: %q", src, name, i, a[i], b[i])
				}
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no corpus query actually rewrote — the differential is vacuous")
	}
}
