package core

import (
	"strings"
	"testing"

	"sparqlog/internal/loggen"
)

func TestCleaningAndValiditySplit(t *testing.T) {
	entries := []string{
		"GET /resource/Paris HTTP/1.1",           // noise
		"SELECT * WHERE { ?s ?p ?o }",            // valid
		"SELECT * WHERE {",                       // invalid
		"SELECT * WHERE { ?s ?p ?o }",            // duplicate
		"ASK { <a> <b> <c> }",                    // valid
		"{\"event\":\"ping\"}",                   // noise
		"DESCRIBE <http://dbpedia.org/r/Berlin>", // valid, bodyless
	}
	rep := AnalyzeLog("test", entries, Options{})
	if rep.NoiseRemoved != 2 {
		t.Errorf("noise = %d, want 2", rep.NoiseRemoved)
	}
	if rep.Total != 5 {
		t.Errorf("total = %d, want 5", rep.Total)
	}
	if rep.Valid != 4 {
		t.Errorf("valid = %d, want 4", rep.Valid)
	}
	if rep.Unique != 3 {
		t.Errorf("unique = %d, want 3", rep.Unique)
	}
	if rep.Bodyless != 1 {
		t.Errorf("bodyless = %d, want 1", rep.Bodyless)
	}
	if rep.Keywords["Select"] != 1 || rep.Keywords["Ask"] != 1 || rep.Keywords["Describe"] != 1 {
		t.Errorf("keywords = %v", rep.Keywords)
	}
}

func TestKeepDuplicates(t *testing.T) {
	entries := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"SELECT * WHERE { ?s ?p ?o }",
	}
	rep := AnalyzeLog("dup", entries, Options{KeepDuplicates: true})
	if rep.Unique != 2 {
		t.Errorf("with duplicates kept, analyzed = %d, want 2", rep.Unique)
	}
}

func TestFragmentAndShapeAccounting(t *testing.T) {
	entries := []string{
		"SELECT * WHERE { ?s <p> ?o }",                         // CQ single edge
		"SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }",             // CQ chain
		"SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?a }", // CQ cycle
		"SELECT * WHERE { ?s <p> ?o FILTER(?o > 3) }",          // CQF
		"SELECT * WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } }",  // CQOF
		"SELECT * WHERE { { ?s <a> ?o } UNION { ?s <b> ?o } }", // not AOF
	}
	rep := AnalyzeLog("shapes", entries, Options{})
	if rep.AOF != 5 {
		t.Errorf("AOF = %d, want 5", rep.AOF)
	}
	if rep.CQ != 3 {
		t.Errorf("CQ = %d, want 3", rep.CQ)
	}
	if rep.CQF != 4 {
		t.Errorf("CQF = %d, want 4 (CQs are CQF)", rep.CQF)
	}
	if rep.CQOF != 5 {
		t.Errorf("CQOF = %d, want 5", rep.CQOF)
	}
	if rep.ShapeCQ.Total != 3 || rep.ShapeCQ.SingleEdge != 1 || rep.ShapeCQ.Cycle != 1 {
		t.Errorf("shapeCQ = %+v", rep.ShapeCQ)
	}
	if rep.ShapeCQ.FlowerSet != 3 {
		t.Errorf("flower set should cover all three CQs, got %d", rep.ShapeCQ.FlowerSet)
	}
	if rep.GirthHist[3] != 1 {
		t.Errorf("girth hist = %v", rep.GirthHist)
	}
}

// TestShapeCollapseAccounting pins which canonical graph each fragment
// is classified on: CQF and CQOF merge the two sides of a ?x = ?y
// filter into one node (two disjoint edges become a chain), and a
// query without such a filter has one graph for all three fragments.
func TestShapeCollapseAccounting(t *testing.T) {
	rep := AnalyzeLog("collapse", []string{
		"SELECT * WHERE { ?a <p> ?b . ?c <q> ?d FILTER(?b = ?c) }",
		"SELECT * WHERE { ?a <p> ?b . ?c <q> ?d }",
	}, Options{})
	if rep.CQ != 1 || rep.CQF != 2 || rep.CQOF != 2 {
		t.Fatalf("CQ/CQF/CQOF = %d/%d/%d, want 1/2/2", rep.CQ, rep.CQF, rep.CQOF)
	}
	if rep.ShapeCQ.Total != 1 || rep.ShapeCQ.Chain != 0 || rep.ShapeCQ.ChainSet != 1 {
		t.Errorf("shapeCQ = %+v, want the one uncollapsed chain set", rep.ShapeCQ)
	}
	for name, sc := range map[string]ShapeCounts{"CQF": rep.ShapeCQF, "CQOF": rep.ShapeCQOF} {
		if sc.Total != 2 || sc.Chain != 1 || sc.ChainSet != 2 {
			t.Errorf("shape%s = %+v, want one collapsed chain among two chain sets", name, sc)
		}
	}
}

func TestVarPredicateHypergraphAccounting(t *testing.T) {
	entries := []string{
		// Example 5.1's cyclic hypergraph query: ghw 2.
		"ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}",
		// Acyclic var-predicate query: ghw 1.
		"ASK { ?s ?p ?o }",
	}
	rep := AnalyzeLog("hyper", entries, Options{})
	if rep.VarPredAOF != 2 {
		t.Fatalf("varPredAOF = %d, want 2", rep.VarPredAOF)
	}
	if rep.GHW1 != 1 || rep.GHW2 != 1 {
		t.Errorf("ghw counts = %d/%d/%d, want 1/1/0", rep.GHW1, rep.GHW2, rep.GHW3)
	}
}

func TestProjectionAndSubqueryCounting(t *testing.T) {
	entries := []string{
		"SELECT ?s WHERE { ?s <p> ?o }",                         // projection
		"SELECT * WHERE { ?s <p> ?o }",                          // none
		"SELECT ?s WHERE { { SELECT ?s WHERE { ?s <q> ?x } } }", // subquery
	}
	rep := AnalyzeLog("proj", entries, Options{})
	if rep.ProjYes != 1 {
		t.Errorf("projYes = %d, want 1", rep.ProjYes)
	}
	if rep.Subqueries != 1 {
		t.Errorf("subqueries = %d, want 1", rep.Subqueries)
	}
}

func TestMergeReports(t *testing.T) {
	a := AnalyzeLog("a", []string{"SELECT * WHERE { ?s <p> ?o }"}, Options{})
	b := AnalyzeLog("b", []string{"ASK { ?s <p> ?o . ?o <q> ?z }"}, Options{})
	total := NewCorpusReport("total")
	total.Merge(a)
	total.Merge(b)
	if total.Unique != 2 || total.SelectAsk != 2 {
		t.Errorf("merged = %d/%d", total.Unique, total.SelectAsk)
	}
	if total.Keywords["Select"] != 1 || total.Keywords["Ask"] != 1 {
		t.Errorf("merged keywords = %v", total.Keywords)
	}
	if total.ShapeCQ.Total != 2 {
		t.Errorf("merged shapes = %+v", total.ShapeCQ)
	}
}

func TestTripleHistogramBuckets(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("SELECT * WHERE { ")
	for i := 0; i < 15; i++ {
		if i > 0 {
			sb.WriteString(" . ")
		}
		sb.WriteString("?a <p> ?b")
	}
	sb.WriteString(" }")
	rep := AnalyzeLog("big", []string{sb.String()}, Options{})
	if rep.TripleHist[SizeHistBuckets-1] != 1 {
		t.Errorf("15 triples should land in the last bucket: %v", rep.TripleHist)
	}
}

// End-to-end: the synthetic generator's output flows through the pipeline
// and reproduces its own calibration approximately.
func TestGeneratorThroughPipeline(t *testing.T) {
	prof := loggen.Profiles()[0] // DBpedia9/12
	ds := loggen.Generate(prof, 2000, 123)
	rep := AnalyzeLog(ds.Name, ds.Entries, Options{})
	if rep.Total == 0 || rep.Valid == 0 || rep.Unique == 0 {
		t.Fatalf("empty pipeline result: %+v", rep)
	}
	// Validity rate should be near the profile's calibration.
	wantValid := float64(prof.PaperValid) / float64(prof.PaperTotal)
	gotValid := float64(rep.Valid) / float64(rep.Total)
	if gotValid < wantValid-0.05 || gotValid > wantValid+0.05 {
		t.Errorf("valid rate = %.3f, want ~%.3f", gotValid, wantValid)
	}
	// Most queries must be Select.
	if rep.Keywords["Select"] < rep.Unique*7/10 {
		t.Errorf("select keyword count %d of %d seems low", rep.Keywords["Select"], rep.Unique)
	}
	// The CQ-like hierarchy must be populated and ordered.
	if !(rep.CQ <= rep.CQF && rep.CQF <= rep.CQOF+rep.WideInterface+10 && rep.AOF <= rep.SelectAsk) {
		t.Errorf("fragment ordering violated: CQ=%d CQF=%d CQOF=%d AOF=%d SA=%d",
			rep.CQ, rep.CQF, rep.CQOF, rep.AOF, rep.SelectAsk)
	}
	// Shape tables are cumulative: every classified query is a flower set
	// or wider.
	if rep.ShapeCQ.Total > 0 && rep.ShapeCQ.FlowerSet < rep.ShapeCQ.Forest {
		t.Errorf("flower set (%d) must cover forests (%d)", rep.ShapeCQ.FlowerSet, rep.ShapeCQ.Forest)
	}
}

func TestWikiDataProfileThroughPipeline(t *testing.T) {
	profs := loggen.Profiles()
	wd := profs[len(profs)-1]
	if wd.Name != "WikiData17" {
		t.Fatal("profile order changed")
	}
	ds := loggen.Generate(wd, 309, 5)
	rep := AnalyzeLog(ds.Name, ds.Entries, Options{})
	// WikiData17 has distinctive rates: paths and subqueries well above
	// the endpoint logs.
	if rep.Paths.Total+rep.Paths.TrivialNeg+rep.Paths.TrivialInv == 0 {
		t.Error("WikiData17 should contain property paths")
	}
	if rep.Subqueries == 0 {
		t.Error("WikiData17 should contain subqueries")
	}
}

// TestStructuralDedup verifies fingerprint-based deduplication catches
// alpha-equivalent duplicates that exact-text dedup keeps.
func TestStructuralDedup(t *testing.T) {
	entries := []string{
		"SELECT ?x WHERE { ?x <p> ?y }",
		"SELECT ?a WHERE { ?a <p> ?b }",                           // alpha-equivalent
		"PREFIX q: <p-is-not-this> SELECT ?x WHERE { ?x <p> ?y }", // same after prefix drop
		"SELECT ?x WHERE { ?x <q> ?y }",                           // different
	}
	exact := AnalyzeLog("exact", entries, Options{})
	structural := AnalyzeLog("structural", entries, Options{StructuralDedup: true})
	if exact.Unique != 4 {
		t.Errorf("exact dedup unique = %d, want 4", exact.Unique)
	}
	if structural.Unique != 2 {
		t.Errorf("structural dedup unique = %d, want 2", structural.Unique)
	}
}
