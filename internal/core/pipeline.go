// Package core is the sparqlog analytics pipeline: it cleans raw query
// logs, splits them into valid and invalid queries, deduplicates, and runs
// every per-query analysis of the paper, aggregating one DatasetReport per
// log and corpus-level totals. It is the Go counterpart of the scripts the
// authors describe in Section 9.
package core

import (
	"strings"
	"unicode/utf8"

	"sparqlog/internal/analysis"
	"sparqlog/internal/lint"
	"sparqlog/internal/paths"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

// KeywordOrder lists Table 2's rows in the paper's order; DatasetReport
// keyword maps use these keys.
var KeywordOrder = func() []string {
	out := make([]string, analysis.TableTwoRows)
	for i := range out {
		out[i] = analysis.Keyword(i).String()
	}
	return out
}()

// ShapeCounts holds the cumulative shape rows of Table 4 for one fragment.
type ShapeCounts struct {
	SingleEdge, Chain, ChainSet, Star, Tree, Forest int
	Cycle, Flower, FlowerSet                        int
	TW2, TW3, TWOther                               int
	Total                                           int
}

func (s *ShapeCounts) add(r shapes.Report) {
	if r.SingleEdge {
		s.SingleEdge++
	}
	if r.Chain {
		s.Chain++
	}
	if r.ChainSet {
		s.ChainSet++
	}
	if r.Star {
		s.Star++
	}
	if r.Tree {
		s.Tree++
	}
	if r.Forest {
		s.Forest++
	}
	if r.Cycle {
		s.Cycle++
	}
	if r.Flower {
		s.Flower++
	}
	if r.FlowerSet {
		s.FlowerSet++
	}
	switch {
	case r.Treewidth >= 0 && r.Treewidth <= 2:
		s.TW2++
	case r.Treewidth == 3:
		s.TW3++
	default:
		s.TWOther++
	}
	s.Total++
}

func (s *ShapeCounts) merge(o ShapeCounts) {
	s.SingleEdge += o.SingleEdge
	s.Chain += o.Chain
	s.ChainSet += o.ChainSet
	s.Star += o.Star
	s.Tree += o.Tree
	s.Forest += o.Forest
	s.Cycle += o.Cycle
	s.Flower += o.Flower
	s.FlowerSet += o.FlowerSet
	s.TW2 += o.TW2
	s.TW3 += o.TW3
	s.TWOther += o.TWOther
	s.Total += o.Total
}

// SizeHistBuckets is the number of buckets of the Figure 1/Figure 5 size
// histograms: triple counts 0..11 plus a 12th bucket for 12-and-more
// ("11+" in the paper's rendering, which labels the last bucket 11+ and
// buckets 0..10 individually; we keep 0..11 exact and bucket 12+).
const SizeHistBuckets = 13

// DatasetReport aggregates every analysis over one query log.
type DatasetReport struct {
	Name string

	// Table 1 columns.
	Total, Valid, Unique int
	// NoiseRemoved counts log entries dropped by cleaning (not queries).
	NoiseRemoved int

	// Bodyless counts queries without a WHERE clause (Section 2).
	Bodyless int

	// Keywords maps Table 2 rows to counts over analyzed queries.
	Keywords map[string]int

	// Select/Ask-scoped statistics (Sections 4.2-4.4).
	SelectAsk   int
	TripleHist  [SizeHistBuckets]int
	TripleSum   int
	OperatorSet *analysis.Distribution
	ProjYes     int
	ProjInd     int
	Subqueries  int

	// Fragment hierarchy (Section 5.2), over Select/Ask queries.
	AOF, CQ, CPF, CQF, WellDesigned, CQOF int
	WideInterface                         int // interface width > 1 among well-designed
	VarPredAOF                            int // AOF patterns with predicate variables

	// Shape analysis (Table 4), per fragment, over queries without
	// predicate variables.
	ShapeCQ, ShapeCQF, ShapeCQOF ShapeCounts
	// Fragment size histograms (Figure 5), indexed by triple count.
	SizeCQ, SizeCQF, SizeCQOF [SizeHistBuckets]int

	// Variables-only rerun of the CQ shape analysis (Section 6.1):
	// constants dropped from the canonical graph.
	ShapeCQNoConst ShapeCounts
	// SingleEdgeWithConstants counts single-edge CQs whose edge touches
	// a constant (the paper found 78.70% of single-edge CQs do).
	SingleEdgeWithConstants int

	// Girth distribution of cyclic queries (Section 6.1): shortest cycle
	// length -> count.
	GirthHist map[int]int

	// Hypergraph analysis of predicate-variable CQOF queries (Section
	// 6.2).
	GHW1, GHW2, GHW3, GHWOther int
	MaxDecompNodes             int

	// Property paths (Section 7 / Table 5).
	Paths *paths.Table5

	// Static-analysis results (Options.Lint): diagnostic occurrences
	// and queries-with-at-least-one per lint code, plus the number of
	// queries whose WHERE clause is provably empty. Nil maps when the
	// linter is off.
	Lint        map[string]int
	LintQueries map[string]int
	LintEmpty   int

	// Repeats is the workload repeat-rate table: for each coarse query
	// shape (RepeatShape), how many valid occurrences the log held and
	// how many distinct queries those occurrences collapse to under the
	// active dedup mode. The gap between the two is the workload a
	// result cache could absorb, which is what makes cache sizing
	// data-driven from the paper's own unique-vs-valid observation.
	Repeats map[string]RepeatStat
	// byShape holds repeat counts by shape code not yet spelled into
	// Repeats: a report being filled counts there, and spellRepeats
	// (or Merge) folds them in. A report handed out has none.
	byShape *shapeCounts
}

// RepeatStat is one row of the repeat-rate table: Total counts valid
// occurrences of a repeat shape, Unique the distinct queries among
// them. Total/Unique is the shape's repeat factor; (Total-Unique)/Total
// bounds the hit ratio a result cache could reach on that shape.
type RepeatStat struct {
	Total, Unique int
}

// Options configures the pipeline.
type Options struct {
	// KeepDuplicates analyzes the Valid corpus instead of the Unique one
	// (the appendix variant, Tables 7-9).
	KeepDuplicates bool
	// StructuralDedup deduplicates by sparql.QueryString, the result
	// cache's key (canonical variable names, expanded prefixes,
	// normalized whitespace), instead of exact text, catching
	// alpha-equivalent duplicates the paper's exact-text dedup misses.
	StructuralDedup bool
	// SkipShapes disables the (comparatively expensive) shape and width
	// analyses; Table 1-3 statistics are still computed.
	SkipShapes bool
	// Lint runs the internal/lint pass suite over every analyzed query
	// and aggregates per-code counts into DatasetReport.Lint. Off by
	// default: the corpus benchmarks gate on the paper pipeline alone.
	Lint bool
}

// looksLikeQuery is the cleaning test of Section 2: entries with no
// query-form keyword at all (HTTP requests, status lines) are removed
// before any counting.
func looksLikeQuery(entry string) bool {
	ascii := true
	for i := 0; i < len(entry); i++ {
		var kw string
		switch c := entry[i]; {
		case c >= utf8.RuneSelf:
			ascii = false
			continue
		case c == 'S' || c == 's':
			kw = "SELECT"
		case c == 'A' || c == 'a':
			kw = "ASK"
		case c == 'C' || c == 'c':
			kw = "CONSTRUCT"
		case c == 'D' || c == 'd':
			kw = "DESCRIBE"
		default:
			continue
		}
		if hasPrefixUpperASCII(entry[i:], kw) {
			return true
		}
	}
	if ascii {
		return false
	}
	// Upper-casing folds some non-ASCII runes onto keyword letters
	// (ſ to S, ı to I), so an entry holding any is judged on its
	// upper-cased copy; the scan above spares the rest that copy.
	up := strings.ToUpper(entry)
	for _, kw := range []string{"SELECT", "ASK", "CONSTRUCT", "DESCRIBE"} {
		if strings.Contains(up, kw) {
			return true
		}
	}
	return false
}

// hasPrefixUpperASCII reports whether s starts with the upper-case
// ASCII word kw in any letter case.
func hasPrefixUpperASCII(s, kw string) bool {
	if len(s) < len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

// AnalyzeLog runs the full pipeline over one log's raw entries.
func AnalyzeLog(name string, entries []string, opts Options) *DatasetReport {
	rep := NewCorpusReport(name)
	parser := &sparql.Parser{}
	var a analyzer
	seen := make(map[string]bool)
	for _, raw := range entries {
		if !looksLikeQuery(raw) {
			rep.NoiseRemoved++
			continue
		}
		rep.Total++
		q, err := parser.Parse(raw)
		if err != nil {
			continue
		}
		rep.Valid++
		f := analysis.Scan(q)
		shape := shapeOf(q, &f)
		if !opts.KeepDuplicates {
			key := raw
			if opts.StructuralDedup {
				key = sparql.QueryString(q)
			}
			if seen[key] {
				rep.noteShape(shape, false)
				continue
			}
			seen[key] = true
		}
		rep.noteShape(shape, true)
		rep.Unique++
		rep.analyzeQuery(q, &f, nil, opts, &a)
	}
	rep.spellRepeats()
	return rep
}

// AnalyzeQueries runs the analysis over already-parsed queries (used by
// tests and the repro harness).
func AnalyzeQueries(name string, qs []*sparql.Query, opts Options) *DatasetReport {
	rep := NewCorpusReport(name)
	var a analyzer
	for _, q := range qs {
		rep.Total++
		rep.Valid++
		rep.Unique++
		f := analysis.Scan(q)
		rep.noteShape(shapeOf(q, &f), true)
		rep.analyzeQuery(q, &f, nil, opts, &a)
	}
	rep.spellRepeats()
	return rep
}

// analyzer is the storage a loop of analyzeQuery calls reuses from one
// query to the next: the builder of the canonical (hyper)graphs, and
// the Scope of a query that has no lint result. What a call leaves in
// it is valid until the next.
type analyzer struct {
	shapes shapes.Builder
	scope  sparql.Scope
}

// analyzeQuery folds one query into the report. f is q's scan. lr is
// the query's lint result when the caller already has it (a serving
// endpoint lints every request for its response header); nil means lint
// here if opts.Lint. a is the storage the analysis reuses.
func (rep *DatasetReport) analyzeQuery(q *sparql.Query, f *analysis.Features, lr *lint.Result, opts Options, a *analyzer) {
	if !q.HasBody() {
		rep.Bodyless++
	}
	if opts.Lint {
		if lr == nil {
			lr = lint.Run(q)
		}
		rep.addLint(lr)
	}
	rep.addKeywords(f.Keywords)
	if f.Paths > 0 {
		for _, pp := range q.PathPatterns() {
			rep.Paths.Add(pp.Path)
		}
	}
	if q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery {
		return
	}
	rep.SelectAsk++
	tc := f.TripleCount()
	rep.TripleSum += tc
	rep.TripleHist[bucket(tc)]++
	rep.OperatorSet.Add(f.Operators)
	sc := &a.scope // or the lint pass's, when there was one
	if lr != nil {
		sc = lr.Scope
	} else {
		sc.Analyze(q)
	}
	switch analysis.Projection(sc) {
	case analysis.UsesProjection:
		rep.ProjYes++
	case analysis.Indeterminate:
		rep.ProjInd++
	}
	if f.Subquery {
		rep.Subqueries++
	}
	frag := analysis.ClassifyFragments(f, sc)
	if !frag.AOF {
		return
	}
	rep.AOF++
	if frag.CQ {
		rep.CQ++
	}
	if frag.CPF {
		rep.CPF++
	}
	if frag.CQF {
		rep.CQF++
	}
	if frag.WellDesigned {
		rep.WellDesigned++
		if frag.InterfaceWidth > 1 {
			rep.WideInterface++
		}
	}
	if frag.CQOF {
		rep.CQOF++
	}
	if opts.SkipShapes {
		return
	}
	b := &a.shapes
	triples := b.Triples(q)
	collapses := f.Collapses
	if frag.HasVarPredicate {
		if frag.CQOF {
			rep.VarPredAOF++
			h := b.Hypergraph(triples, shapes.Options{CollapseEqual: collapses})
			if d, ok := h.GHW(3); ok {
				switch d.Width {
				case 0, 1:
					rep.GHW1++
				case 2:
					rep.GHW2++
				case 3:
					rep.GHW3++
				}
				if d.Nodes > rep.MaxDecompNodes {
					rep.MaxDecompNodes = d.Nodes
				}
			} else {
				rep.GHWOther++
			}
		}
		return
	}
	// Canonical-graph shape analysis per fragment (Table 4, Figure 5).
	// The fragments see at most two distinct graphs, without and with
	// the ?x = ?y collapses, and one when the query has no such filter
	// (always so for a CQ); each is built and classified once.
	var reports [2]shapes.Report
	var classified [2]bool
	classify := func(withCollapse bool) shapes.Report {
		i, o := 0, shapes.Options{}
		if withCollapse && len(collapses) > 0 {
			i, o.CollapseEqual = 1, collapses
		}
		if !classified[i] {
			g, _ := b.Graph(triples, o)
			reports[i], classified[i] = shapes.Classify(g), true
		}
		return reports[i]
	}
	if frag.CQ {
		r := classify(false)
		rep.ShapeCQ.add(r)
		rep.SizeCQ[bucket(tc)]++
		if g := r.Girth; g > 0 {
			rep.GirthHist[g]++
		}
		// Variables-only rerun (constants dropped).
		gNoConst, _ := b.Graph(triples, shapes.Options{ExcludeConstants: true})
		rep.ShapeCQNoConst.add(shapes.Classify(gNoConst))
		if r.SingleEdge {
			for _, t := range triples {
				if t.S.IsConstant() || t.O.IsConstant() {
					rep.SingleEdgeWithConstants++
					break
				}
			}
		}
	}
	if frag.CQF {
		rep.ShapeCQF.add(classify(true))
		rep.SizeCQF[bucket(tc)]++
	}
	if frag.CQOF {
		rep.ShapeCQOF.add(classify(true))
		rep.SizeCQOF[bucket(tc)]++
	}
}

// addLint folds one query's static-analysis findings into the per-code
// aggregates. Runs for every analyzed query, not just the Select/Ask
// subset the paper statistics scope to.
func (rep *DatasetReport) addLint(r *lint.Result) {
	if len(r.Diagnostics) > 0 {
		if rep.Lint == nil {
			rep.Lint = make(map[string]int)
			rep.LintQueries = make(map[string]int)
		}
		for _, d := range r.Diagnostics {
			rep.Lint[d.Code]++
		}
		for _, code := range r.Codes() {
			rep.LintQueries[code]++
		}
	}
	if r.Empty {
		rep.LintEmpty++
	}
}

func bucket(tc int) int {
	if tc >= SizeHistBuckets-1 {
		return SizeHistBuckets - 1
	}
	return tc
}

func (rep *DatasetReport) addKeywords(k analysis.Keywords) {
	for i, name := range KeywordOrder {
		if k.Has(analysis.Keyword(i)) {
			rep.Keywords[name]++
		}
	}
}

// AvgTriples is the mean triple count over Select/Ask queries (the Avg#T
// row of Figure 1).
func (rep *DatasetReport) AvgTriples() float64 {
	if rep.SelectAsk == 0 {
		return 0
	}
	return float64(rep.TripleSum) / float64(rep.SelectAsk)
}

// SelectAskShare is the S/A row of Figure 1: the fraction of analyzed
// queries that are Select or Ask.
func (rep *DatasetReport) SelectAskShare() float64 {
	if rep.Unique == 0 {
		return 0
	}
	return float64(rep.SelectAsk) / float64(rep.Unique)
}

// Merge folds another report into this one (corpus aggregation). It
// reads o without changing it, and leaves rep's repeat-rate table
// spelled.
func (rep *DatasetReport) Merge(o *DatasetReport) {
	rep.Total += o.Total
	rep.Valid += o.Valid
	rep.Unique += o.Unique
	rep.NoiseRemoved += o.NoiseRemoved
	rep.Bodyless += o.Bodyless
	for k, v := range o.Keywords {
		rep.Keywords[k] += v
	}
	rep.SelectAsk += o.SelectAsk
	for i := range o.TripleHist {
		rep.TripleHist[i] += o.TripleHist[i]
		rep.SizeCQ[i] += o.SizeCQ[i]
		rep.SizeCQF[i] += o.SizeCQF[i]
		rep.SizeCQOF[i] += o.SizeCQOF[i]
	}
	rep.TripleSum += o.TripleSum
	rep.OperatorSet.Merge(o.OperatorSet)
	rep.ProjYes += o.ProjYes
	rep.ProjInd += o.ProjInd
	rep.Subqueries += o.Subqueries
	rep.AOF += o.AOF
	rep.CQ += o.CQ
	rep.CPF += o.CPF
	rep.CQF += o.CQF
	rep.WellDesigned += o.WellDesigned
	rep.CQOF += o.CQOF
	rep.WideInterface += o.WideInterface
	rep.VarPredAOF += o.VarPredAOF
	rep.ShapeCQ.merge(o.ShapeCQ)
	rep.ShapeCQF.merge(o.ShapeCQF)
	rep.ShapeCQOF.merge(o.ShapeCQOF)
	rep.ShapeCQNoConst.merge(o.ShapeCQNoConst)
	rep.SingleEdgeWithConstants += o.SingleEdgeWithConstants
	for k, v := range o.GirthHist {
		rep.GirthHist[k] += v
	}
	rep.GHW1 += o.GHW1
	rep.GHW2 += o.GHW2
	rep.GHW3 += o.GHW3
	rep.GHWOther += o.GHWOther
	if o.MaxDecompNodes > rep.MaxDecompNodes {
		rep.MaxDecompNodes = o.MaxDecompNodes
	}
	rep.Paths.Merge(o.Paths)
	if len(o.Lint) > 0 {
		if rep.Lint == nil {
			rep.Lint = make(map[string]int)
			rep.LintQueries = make(map[string]int)
		}
		for k, v := range o.Lint {
			rep.Lint[k] += v
		}
		for k, v := range o.LintQueries {
			rep.LintQueries[k] += v
		}
	}
	rep.LintEmpty += o.LintEmpty
	rep.spellRepeats()
	for k, v := range o.Repeats {
		rep.addRepeat(k, v)
	}
	if o.byShape != nil {
		rep.addShapeCounts(o.byShape)
	}
}

// NewCorpusReport returns an empty report suitable as a Merge target.
func NewCorpusReport(name string) *DatasetReport {
	return &DatasetReport{
		Name:        name,
		Keywords:    make(map[string]int),
		OperatorSet: analysis.NewDistribution(),
		GirthHist:   make(map[int]int),
		Paths:       paths.NewTable5(),
		Repeats:     make(map[string]RepeatStat),
	}
}
