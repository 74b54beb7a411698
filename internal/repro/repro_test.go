package repro

import (
	"strings"
	"testing"
	"time"

	"sparqlog/internal/engine"
)

// tinyConfig keeps test runtime low.
func tinyConfig() Config {
	return Config{
		Scale:         0.00002,
		Seed:          2017,
		StreakLogSize: 500,
	}
}

func TestBuildCorpus(t *testing.T) {
	c := BuildCorpus(tinyConfig())
	if len(c.Reports) != 13 {
		t.Fatalf("reports = %d, want 13", len(c.Reports))
	}
	if c.Total.Unique == 0 || c.Total.Valid < c.Total.Unique {
		t.Errorf("totals inconsistent: %+v", c.Total)
	}
}

func TestTablesRender(t *testing.T) {
	cfg := tinyConfig()
	c := BuildCorpus(cfg)
	checks := []struct {
		name, out string
		contains  []string
	}{
		{"Table1", Table1(c), []string{"DBpedia9/12", "WikiData17", "Total"}},
		{"Table2", Table2(c), []string{"Select", "Filter", "Group By"}},
		{"Section41", Section41(c), []string{"Distinct", "BritM14"}},
		{"Figure1", Figure1(c), []string{"Avg#T", "Cumulative"}},
		{"Table3", Table3(c), []string{"CPF subtotal", "CPF+O", "A, O, U, F"}},
		{"Section44", Section44(c), []string{"Subqueries", "Projection"}},
		{"Figure5", Figure5(c), []string{"CQ", "CQF", "CQOF"}},
		{"Table4", Table4(c), []string{"single edge", "flower set", "treewidth"}},
		{"Section61", Section61(c), []string{"Shortest cycle"}},
		{"Section62", Section62(c), []string{"ghw=1"}},
		{"Table5", Table5(c), []string{"navigational"}},
	}
	for _, tc := range checks {
		for _, want := range tc.contains {
			if !strings.Contains(tc.out, want) {
				t.Errorf("%s output missing %q:\n%s", tc.name, want, tc.out)
			}
		}
	}
}

func TestCorpusQualitativeFindings(t *testing.T) {
	c := BuildCorpus(tinyConfig())
	tot := c.Total
	// Select queries dominate (paper: 87.97%).
	if tot.Keywords["Select"]*100 < tot.Unique*70 {
		t.Errorf("Select share too low: %d of %d", tot.Keywords["Select"], tot.Unique)
	}
	// The overwhelming majority of CQs is acyclic: forest should cover
	// more than 95% of CQ shapes.
	if tot.ShapeCQ.Total > 0 && tot.ShapeCQ.Forest*100 < tot.ShapeCQ.Total*95 {
		t.Errorf("forest coverage = %d of %d", tot.ShapeCQ.Forest, tot.ShapeCQ.Total)
	}
	// Flower sets reach (near) 100%.
	if tot.ShapeCQ.Total > 0 && tot.ShapeCQ.FlowerSet*1000 < tot.ShapeCQ.Total*995 {
		t.Errorf("flower set coverage = %d of %d", tot.ShapeCQ.FlowerSet, tot.ShapeCQ.Total)
	}
	// No treewidth above 3 in CQ-like queries.
	if tot.ShapeCQ.TWOther != 0 || tot.ShapeCQF.TWOther != 0 || tot.ShapeCQOF.TWOther != 0 {
		t.Errorf("queries beyond treewidth 3: %d/%d/%d",
			tot.ShapeCQ.TWOther, tot.ShapeCQF.TWOther, tot.ShapeCQOF.TWOther)
	}
	// Fragment inclusion: CQ <= CQF <= AOF; CQOF <= well-designed.
	if tot.CQ > tot.CQF || tot.CQF > tot.AOF || tot.CQOF > tot.WellDesigned {
		t.Errorf("fragment inclusions violated: CQ=%d CQF=%d CQOF=%d WD=%d AOF=%d",
			tot.CQ, tot.CQF, tot.CQOF, tot.WellDesigned, tot.AOF)
	}
}

// TestFigure3Shape checks the engine experiment's reproduction target
// beside the corpus findings above, at test scale.
func TestFigure3Shape(t *testing.T) {
	out, data := engine.Figure3(1200, 6, 2017, 120*time.Millisecond)
	if !strings.Contains(out, "W-3") || !strings.Contains(out, "W-8") {
		t.Fatalf("missing workloads in output:\n%s", out)
	}
	// Qualitative reproduction targets: summed over workloads, the graph
	// engine beats the relational engine, and for the relational engine
	// cycles cost at least as much as chains.
	var bgTotal, pgTotal int64
	for i := range data.Lengths {
		bgTotal += data.ChainBG[i] + data.CycleBG[i]
		pgTotal += data.ChainPG[i] + data.CyclePG[i]
	}
	if bgTotal >= pgTotal {
		t.Errorf("graph engine (%d ns) should be faster overall than relational (%d ns)", bgTotal, pgTotal)
	}
	// The cycle >> chain gap on the relational engine only emerges at
	// realistic graph sizes, so it is not asserted at this toy scale;
	// BenchmarkFigure3ChainCycle regenerates the figure on 6,000 nodes.
}

func TestTable6Renders(t *testing.T) {
	out := Table6(tinyConfig())
	for _, want := range []string{"1-10", ">100", "DBP'14", "Longest"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table6 missing %q:\n%s", want, out)
		}
	}
}

func TestValidCorpusKeepsDuplicates(t *testing.T) {
	cfg := tinyConfig()
	u := BuildCorpus(cfg)
	v := BuildValidCorpus(cfg)
	if v.Total.Unique <= u.Total.Unique {
		t.Errorf("valid corpus (%d) should analyze more queries than unique corpus (%d)",
			v.Total.Unique, u.Total.Unique)
	}
}
