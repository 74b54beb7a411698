// Package repro regenerates the tables and figures of the paper's log
// study from the synthetic corpus, printing rows in the paper's layout so
// that measured and published values can be compared side by side
// (recorded in EXPERIMENTS.md). The engine experiment, Figure 3, is
// engine.Figure3: it lives beside the two engines it races, so that
// sparqld, which prints its /stats study through this package, links no
// engine.
package repro

import (
	"fmt"
	"sort"
	"strings"

	"sparqlog/internal/core"
	"sparqlog/internal/loggen"
	"sparqlog/internal/paths"
	"sparqlog/internal/streaks"
)

// Config scales the experiments to the host machine.
type Config struct {
	// Scale is the corpus-size fraction of the paper's 180M queries.
	Scale float64
	Seed  int64
	// StreakLogSize is the per-log entry count for the Table 6 analysis.
	StreakLogSize int
}

// DefaultConfig is sized for a laptop-scale run (~20k corpus queries).
func DefaultConfig() Config {
	return Config{
		Scale:         0.0001,
		Seed:          2017,
		StreakLogSize: 4000,
	}
}

// Corpus bundles the generated logs with their analyses.
type Corpus struct {
	Datasets []loggen.Dataset
	Reports  []*core.DatasetReport
	Total    *core.DatasetReport
}

// BuildCorpus generates and analyzes the 13 logs.
func BuildCorpus(cfg Config) *Corpus {
	return buildCorpus(cfg, core.Options{})
}

// BuildValidCorpus is the appendix variant: duplicates kept.
func BuildValidCorpus(cfg Config) *Corpus {
	return buildCorpus(cfg, core.Options{KeepDuplicates: true})
}

func buildCorpus(cfg Config, opts core.Options) *Corpus {
	c := &Corpus{Datasets: loggen.GenerateCorpus(cfg.Scale, cfg.Seed)}
	c.Total = core.NewCorpusReport("Total")
	for _, ds := range c.Datasets {
		rep := core.AnalyzeLog(ds.Name, ds.Entries, opts)
		c.Reports = append(c.Reports, rep)
		c.Total.Merge(rep)
	}
	return c
}

func pct(part, whole int) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}

// Table1 renders the corpus sizes (Table 1).
func Table1(c *Corpus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Sizes of query logs in our corpus\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s\n", "Source", "Total #Q", "Valid #Q", "Unique #Q")
	for _, r := range c.Reports {
		fmt.Fprintf(&sb, "%-14s %12d %12d %12d\n", r.Name, r.Total, r.Valid, r.Unique)
	}
	fmt.Fprintf(&sb, "%-14s %12d %12d %12d\n", "Total", c.Total.Total, c.Total.Valid, c.Total.Unique)
	fmt.Fprintf(&sb, "Bodyless queries: %d (%s of unique)\n", c.Total.Bodyless, pct(c.Total.Bodyless, c.Total.Unique))
	return sb.String()
}

// RepeatRates renders the workload repeat-rate table: valid-vs-unique
// occurrence counts per coarse query shape (core.RepeatShape), ordered
// by volume. The Repeat column is the mean number of times each
// distinct query of the shape was asked; MaxHit is the fraction of the
// shape's traffic a result cache could answer without executing
// ((Total-Unique)/Total) — the corpus-derived upper bound that makes
// cache sizing data-driven.
func RepeatRates(c *Corpus) string {
	var sb strings.Builder
	rep := c.Total
	fmt.Fprintf(&sb, "Repeat rate by query shape (result-cache sizing)\n")
	fmt.Fprintf(&sb, "%-40s %10s %10s %8s %8s\n", "Shape", "Total #Q", "Unique #Q", "Repeat", "MaxHit")
	type row struct {
		label string
		s     core.RepeatStat
	}
	var rows []row
	for label, s := range rep.Repeats {
		rows = append(rows, row{label, s})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].s.Total != rows[j].s.Total {
			return rows[i].s.Total > rows[j].s.Total
		}
		return rows[i].label < rows[j].label
	})
	const maxRows = 15
	shown := rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	var totalAll, uniqueAll int
	for _, r := range rows {
		totalAll += r.s.Total
		uniqueAll += r.s.Unique
	}
	for _, r := range shown {
		repeat := "-"
		if r.s.Unique > 0 {
			repeat = fmt.Sprintf("%.2fx", float64(r.s.Total)/float64(r.s.Unique))
		}
		fmt.Fprintf(&sb, "%-40s %10d %10d %8s %8s\n",
			r.label, r.s.Total, r.s.Unique, repeat, pct(r.s.Total-r.s.Unique, r.s.Total))
	}
	if n := len(rows) - len(shown); n > 0 {
		fmt.Fprintf(&sb, "(%d further shapes omitted)\n", n)
	}
	if totalAll > 0 && uniqueAll > 0 {
		fmt.Fprintf(&sb, "Overall: %d valid, %d unique, repeat %.2fx, cacheable bound %s\n",
			totalAll, uniqueAll, float64(totalAll)/float64(uniqueAll), pct(totalAll-uniqueAll, totalAll))
	}
	return sb.String()
}

// Table2 renders keyword counts over the analyzed corpus (Table 2; with a
// duplicate-keeping corpus it reproduces appendix Table 7).
func Table2(c *Corpus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: Keyword count in queries\n")
	fmt.Fprintf(&sb, "%-12s %10s %9s\n", "Element", "Absolute", "Relative")
	for _, k := range core.KeywordOrder {
		fmt.Fprintf(&sb, "%-12s %10d %9s\n", k, c.Total.Keywords[k], pct(c.Total.Keywords[k], c.Total.Unique))
	}
	return sb.String()
}

// Section41 renders the per-dataset keyword rates the paper's Section 4.1
// discusses in prose: query-type mix and solution-modifier usage.
func Section41(c *Corpus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 4.1: Per-dataset query types and solution modifiers\n")
	fmt.Fprintf(&sb, "%-14s %8s %8s %8s %8s %9s %8s %8s %8s\n",
		"Dataset", "Select", "Ask", "Descr", "Constr", "Distinct", "Limit", "Offset", "OrderBy")
	for _, r := range c.Reports {
		if r.Unique == 0 {
			continue
		}
		p := func(k string) string { return pct(r.Keywords[k], r.Unique) }
		fmt.Fprintf(&sb, "%-14s %8s %8s %8s %8s %9s %8s %8s %8s\n",
			r.Name, p("Select"), p("Ask"), p("Describe"), p("Construct"),
			p("Distinct"), p("Limit"), p("Offset"), p("Order By"))
	}
	return sb.String()
}

// Figure1 renders the triple-count distribution per dataset plus the S/A
// and Avg#T rows.
func Figure1(c *Corpus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: Triple counts of Select/Ask queries per dataset\n")
	fmt.Fprintf(&sb, "%-14s", "Dataset")
	for i := 0; i < core.SizeHistBuckets-1; i++ {
		fmt.Fprintf(&sb, "%6d", i)
	}
	fmt.Fprintf(&sb, "%6s %8s %8s\n", "12+", "S/A", "Avg#T")
	for _, r := range c.Reports {
		fmt.Fprintf(&sb, "%-14s", r.Name)
		for i := 0; i < core.SizeHistBuckets; i++ {
			if r.SelectAsk > 0 {
				fmt.Fprintf(&sb, "%5.1f%%", 100*float64(r.TripleHist[i])/float64(r.SelectAsk))
			} else {
				fmt.Fprintf(&sb, "%6s", "-")
			}
		}
		fmt.Fprintf(&sb, " %7.2f%% %8.2f\n", 100*r.SelectAskShare(), r.AvgTriples())
	}
	// Corpus-level cumulative shares quoted in Section 4.2.
	cum := 0
	var at1, at6, at12 float64
	for i, v := range c.Total.TripleHist {
		cum += v
		switch i {
		case 1:
			at1 = float64(cum)
		case 6:
			at6 = float64(cum)
		case 12:
			at12 = float64(cum)
		}
	}
	sa := float64(c.Total.SelectAsk)
	if sa > 0 {
		fmt.Fprintf(&sb, "Cumulative: <=1 triple %.2f%%, <=6 triples %.2f%%, <=12 triples %.2f%%\n",
			100*at1/sa, 100*at6/sa, 100*at12/sa)
	}
	return sb.String()
}

// Table3 renders the operator-set distribution.
func Table3(c *Corpus) string {
	d := c.Total.OperatorSet
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 3: Sets of operators used in Select/Ask queries\n")
	fmt.Fprintf(&sb, "%-14s %10s %9s\n", "Operator Set", "Absolute", "Relative")
	// CPF block first, in the paper's order, then extensions.
	for _, k := range []string{"none", "F", "A", "A, F"} {
		fmt.Fprintf(&sb, "%-14s %10d %9s\n", k, d.Counts[k], pct(d.Counts[k], d.Total))
	}
	fmt.Fprintf(&sb, "%-14s %10d %9s\n", "CPF subtotal", d.CPFSubtotal(), pct(d.CPFSubtotal(), d.Total))
	fmt.Fprintf(&sb, "%-14s %10d %9s\n", "CPF+O", d.PlusOpt(), "+"+pct(d.PlusOpt(), d.Total))
	fmt.Fprintf(&sb, "%-14s %10d %9s\n", "CPF+G", d.PlusGraph(), "+"+pct(d.PlusGraph(), d.Total))
	fmt.Fprintf(&sb, "%-14s %10d %9s\n", "CPF+U", d.PlusUnion(), "+"+pct(d.PlusUnion(), d.Total))
	fmt.Fprintf(&sb, "%-14s %10d %9s\n", "A, O, U, F", d.Counts["A, O, U, F"], pct(d.Counts["A, O, U, F"], d.Total))
	fmt.Fprintf(&sb, "%-14s %10d %9s\n", "other", d.Counts["other"], pct(d.Counts["other"], d.Total))
	return sb.String()
}

// Section44 renders the subquery and projection rates.
func Section44(c *Corpus) string {
	var sb strings.Builder
	t := c.Total
	fmt.Fprintf(&sb, "Section 4.4: Subqueries and Projection\n")
	fmt.Fprintf(&sb, "Subqueries: %d (%s of unique queries)\n", t.Subqueries, pct(t.Subqueries, t.Unique))
	fmt.Fprintf(&sb, "Projection: %d (%s) definite, %d (%s) indeterminate (Bind)\n",
		t.ProjYes, pct(t.ProjYes, t.Unique), t.ProjInd, pct(t.ProjInd, t.Unique))
	fmt.Fprintf(&sb, "Projection range: %s .. %s\n",
		pct(t.ProjYes, t.Unique), pct(t.ProjYes+t.ProjInd, t.Unique))
	return sb.String()
}

// Figure5 renders the size histogram of CQ-like queries with >= 2 triples.
func Figure5(c *Corpus) string {
	var sb strings.Builder
	t := c.Total
	fmt.Fprintf(&sb, "Figure 5: Size of CQ-like queries with at least two triples\n")
	fmt.Fprintf(&sb, "%-10s", "size")
	for i := 2; i < core.SizeHistBuckets-1; i++ {
		fmt.Fprintf(&sb, "%7d", i)
	}
	fmt.Fprintf(&sb, "%7s\n", "12+")
	row := func(name string, hist [core.SizeHistBuckets]int) {
		total := 0
		for i := 2; i < core.SizeHistBuckets; i++ {
			total += hist[i]
		}
		fmt.Fprintf(&sb, "%-10s", name)
		for i := 2; i < core.SizeHistBuckets; i++ {
			if total > 0 {
				fmt.Fprintf(&sb, "%6.1f%%", 100*float64(hist[i])/float64(total))
			} else {
				fmt.Fprintf(&sb, "%7s", "-")
			}
		}
		one := hist[0] + hist[1]
		all := one + total
		fmt.Fprintf(&sb, "   (<=1 triple: %s)\n", pct(one, all))
	}
	row("CQ", t.SizeCQ)
	row("CQF", t.SizeCQF)
	row("CQOF", t.SizeCQOF)
	return sb.String()
}

// Table4 renders the cumulative shape analysis per fragment.
func Table4(c *Corpus) string {
	var sb strings.Builder
	t := c.Total
	fmt.Fprintf(&sb, "Table 4: Cumulative shape analysis of CQ, CQF, CQOF\n")
	fmt.Fprintf(&sb, "%-14s %12s %9s %12s %9s %12s %9s\n",
		"Shape", "CQ", "%", "CQF", "%", "CQOF", "%")
	row := func(name string, a, b, d int) {
		fmt.Fprintf(&sb, "%-14s %12d %9s %12d %9s %12d %9s\n", name,
			a, pct(a, t.ShapeCQ.Total), b, pct(b, t.ShapeCQF.Total), d, pct(d, t.ShapeCQOF.Total))
	}
	row("single edge", t.ShapeCQ.SingleEdge, t.ShapeCQF.SingleEdge, t.ShapeCQOF.SingleEdge)
	row("chain", t.ShapeCQ.Chain, t.ShapeCQF.Chain, t.ShapeCQOF.Chain)
	row("chain set", t.ShapeCQ.ChainSet, t.ShapeCQF.ChainSet, t.ShapeCQOF.ChainSet)
	row("star", t.ShapeCQ.Star, t.ShapeCQF.Star, t.ShapeCQOF.Star)
	row("tree", t.ShapeCQ.Tree, t.ShapeCQF.Tree, t.ShapeCQOF.Tree)
	row("forest", t.ShapeCQ.Forest, t.ShapeCQF.Forest, t.ShapeCQOF.Forest)
	row("cycle", t.ShapeCQ.Cycle, t.ShapeCQF.Cycle, t.ShapeCQOF.Cycle)
	row("flower", t.ShapeCQ.Flower, t.ShapeCQF.Flower, t.ShapeCQOF.Flower)
	row("flower set", t.ShapeCQ.FlowerSet, t.ShapeCQF.FlowerSet, t.ShapeCQOF.FlowerSet)
	row("treewidth <=2", t.ShapeCQ.TW2, t.ShapeCQF.TW2, t.ShapeCQOF.TW2)
	row("treewidth =3", t.ShapeCQ.TW3, t.ShapeCQF.TW3, t.ShapeCQOF.TW3)
	row("total", t.ShapeCQ.Total, t.ShapeCQF.Total, t.ShapeCQOF.Total)
	fmt.Fprintf(&sb, "Fragment shares of AOF: CQ %s, CQF %s, well-designed %s, CQOF %s (AOF=%d)\n",
		pct(t.CQ, t.AOF), pct(t.CQF, t.AOF), pct(t.WellDesigned, t.AOF), pct(t.CQOF, t.AOF), t.AOF)
	fmt.Fprintf(&sb, "Interface width > 1 among well-designed: %d\n", t.WideInterface)
	return sb.String()
}

// Section61 renders the shortest-cycle-length distribution plus the
// constants analysis of Section 6.1.
func Section61(c *Corpus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 6.1: Shortest cycle lengths of cyclic CQs\n")
	var keys []int
	for k := range c.Total.GirthHist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "girth %2d: %d queries\n", k, c.Total.GirthHist[k])
	}
	t := c.Total
	fmt.Fprintf(&sb, "Single-edge CQs using constants: %d (%s of single-edge CQs)\n",
		t.SingleEdgeWithConstants, pct(t.SingleEdgeWithConstants, t.ShapeCQ.SingleEdge))
	nc := t.ShapeCQNoConst
	fmt.Fprintf(&sb, "Variables-only CQ shapes: single edge %s, forest %s, flower set %s (of %d)\n",
		pct(nc.SingleEdge, nc.Total), pct(nc.Forest, nc.Total), pct(nc.FlowerSet, nc.Total), nc.Total)
	return sb.String()
}

// Appendix regenerates the duplicate-containing variant of the corpus
// analyses (Tables 7-9, Figures 8-10 of the paper's appendix).
func Appendix(cfg Config) string {
	c := BuildValidCorpus(cfg)
	var sb strings.Builder
	sb.WriteString("Appendix: analyses over the Valid corpus (duplicates kept)\n\n")
	sb.WriteString(strings.Replace(Table2(c), "Table 2", "Table 7", 1))
	sb.WriteByte('\n')
	sb.WriteString(strings.Replace(Table3(c), "Table 3", "Table 8", 1))
	sb.WriteByte('\n')
	sb.WriteString(strings.Replace(Figure1(c), "Figure 1", "Figure 8", 1))
	sb.WriteByte('\n')
	sb.WriteString(strings.Replace(Figure5(c), "Figure 5", "Figure 9", 1))
	sb.WriteByte('\n')
	sb.WriteString(strings.Replace(Table4(c), "Table 4", "Table 9", 1))
	sb.WriteByte('\n')
	sb.WriteString(strings.Replace(Table5(c), "Table 5", "Figure 10", 1))
	return sb.String()
}

// Table6Windows reports streak counts under varying window sizes, the
// sensitivity analysis the paper names as future work in Section 8.
func Table6Windows(cfg Config, windows []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 8 extension: streak length vs window size (DBpedia16 profile)\n")
	var prof loggen.Profile
	for _, p := range loggen.Profiles() {
		if p.Name == "DBpedia16" {
			prof = p
		}
	}
	ds := loggen.Generate(prof, cfg.StreakLogSize, cfg.Seed)
	fmt.Fprintf(&sb, "%-8s %10s %10s %10s\n", "window", "streaks", ">10", "longest")
	for _, w := range windows {
		found := streaks.Find(ds.Entries, streaks.Options{Window: w})
		h := streaks.HistogramOf(found)
		over10 := 0
		for b := 1; b < len(h.Buckets); b++ {
			over10 += h.Buckets[b]
		}
		fmt.Fprintf(&sb, "%-8d %10d %10d %10d\n", w, len(found), over10, h.Longest)
	}
	return sb.String()
}

// Section62 renders the hypertree-width analysis of predicate-variable
// queries.
func Section62(c *Corpus) string {
	var sb strings.Builder
	t := c.Total
	fmt.Fprintf(&sb, "Section 6.2: Hypertree width of predicate-variable CQOF queries\n")
	fmt.Fprintf(&sb, "analyzed: %d  ghw=1: %d  ghw=2: %d  ghw=3: %d  beyond: %d\n",
		t.VarPredAOF, t.GHW1, t.GHW2, t.GHW3, t.GHWOther)
	fmt.Fprintf(&sb, "max decomposition nodes: %d\n", t.MaxDecompNodes)
	return sb.String()
}

// Table5 renders the property-path expression types.
func Table5(c *Corpus) string {
	t := c.Total.Paths
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5: Structure of navigational property paths\n")
	fmt.Fprintf(&sb, "trivial !a: %d   trivial ^a: %d   navigational: %d\n",
		t.TrivialNeg, t.TrivialInv, t.Total)
	type row struct {
		t paths.ExprType
		n int
	}
	var rows []row
	for et, n := range t.Counts {
		rows = append(rows, row{et, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].t < rows[j].t
	})
	fmt.Fprintf(&sb, "%-24s %10s %9s %8s\n", "Expression Type", "Absolute", "Relative", "k")
	for _, r := range rows {
		kcol := ""
		if mk, ok := t.MinK[r.t]; ok {
			if mk == t.MaxK[r.t] {
				kcol = fmt.Sprintf("%d", mk)
			} else {
				kcol = fmt.Sprintf("%d-%d", mk, t.MaxK[r.t])
			}
		}
		fmt.Fprintf(&sb, "%-24s %10d %9s %8s\n", r.t.String(), r.n, pct(r.n, t.Total), kcol)
	}
	fmt.Fprintf(&sb, "Expressions outside Ctract: %d\n", t.NonCtract)
	return sb.String()
}

// Table6 runs streak detection over three DBpedia-style single-day logs.
func Table6(cfg Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 6: Length of streaks in three single-day log files (window %d, threshold %.0f%%)\n",
		streaks.DefaultWindow, streaks.DefaultThreshold*100)
	profiles := loggen.Profiles()
	var hists []streaks.Histogram
	names := []string{"DBpedia14", "DBpedia15", "DBpedia16"}
	for i, name := range names {
		var prof loggen.Profile
		for _, p := range profiles {
			if p.Name == name {
				prof = p
			}
		}
		ds := loggen.Generate(prof, cfg.StreakLogSize, cfg.Seed+int64(i)*31)
		found := streaks.Find(ds.Entries, streaks.Options{})
		hists = append(hists, streaks.HistogramOf(found))
	}
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s\n", "Streak length", "#DBP'14", "#DBP'15", "#DBP'16")
	for b := 0; b < 11; b++ {
		fmt.Fprintf(&sb, "%-14s %10d %10d %10d\n", streaks.BucketLabel(b),
			hists[0].Buckets[b], hists[1].Buckets[b], hists[2].Buckets[b])
	}
	fmt.Fprintf(&sb, "Longest streaks: %d / %d / %d\n", hists[0].Longest, hists[1].Longest, hists[2].Longest)
	return sb.String()
}

// LogReport renders the study of one analyzed log: the corpus-based
// tables and figures, in the paper's order, over a corpus of that one
// report. sparqlanalyze -log prints it for a log file and sparqld's
// /stats for the traffic the server has answered.
func LogReport(rep *core.DatasetReport) string {
	c := &Corpus{Reports: []*core.DatasetReport{rep}, Total: rep}
	return strings.Join([]string{
		Table1(c), RepeatRates(c), Table2(c), Figure1(c), Table3(c), Section44(c),
		Figure5(c), Table4(c), Section61(c), Section62(c), Table5(c),
	}, "\n")
}

// All runs every corpus-based experiment and returns the combined report.
func All(cfg Config) string {
	var sb strings.Builder
	c := BuildCorpus(cfg)
	sb.WriteString(Table1(c))
	sb.WriteByte('\n')
	sb.WriteString(RepeatRates(c))
	sb.WriteByte('\n')
	sb.WriteString(Table2(c))
	sb.WriteByte('\n')
	sb.WriteString(Section41(c))
	sb.WriteByte('\n')
	sb.WriteString(Figure1(c))
	sb.WriteByte('\n')
	sb.WriteString(Table3(c))
	sb.WriteByte('\n')
	sb.WriteString(Section44(c))
	sb.WriteByte('\n')
	sb.WriteString(Figure5(c))
	sb.WriteByte('\n')
	sb.WriteString(Table4(c))
	sb.WriteByte('\n')
	sb.WriteString(Section61(c))
	sb.WriteByte('\n')
	sb.WriteString(Section62(c))
	sb.WriteByte('\n')
	sb.WriteString(Table5(c))
	sb.WriteByte('\n')
	sb.WriteString(Table6(cfg))
	return sb.String()
}
