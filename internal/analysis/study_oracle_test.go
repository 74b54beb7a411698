package analysis

import (
	"reflect"
	"strings"
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// This file keeps the per-query analyses Scan and the Scope-based
// ClassifyFragments replaced, as oracles: refQueryKeywords,
// refOperators, refUsesSubqueries, refTripleCount, refClassifyFragments
// (with its map-based refBinVars and refPatternTree's NodeVars and
// SubtreeVars), refWellDesigned and refEqualityCollapses were the
// package's QueryKeywords, Operators, UsesSubqueries, TripleCount,
// ClassifyFragments, WellDesigned and EqualityCollapses, each a walk
// of its own; refExprVars was sparql.ExprVars.

// refExprVars returns the set of variable names in an expression; an
// EXISTS body's are its Scope's Mentioned.
func refExprVars(e sparql.Expr) map[string]bool {
	out := make(map[string]bool)
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		switch t := x.(type) {
		case *sparql.TermExpr:
			if t.Term.Kind == sparql.TermVar && t.Term.Value != "" {
				out[t.Term.Value] = true
			}
		case *sparql.ExistsExpr:
			s := sparql.ScopeOf(&sparql.Query{Where: t.Pattern})
			for i := range s.Mentioned.All() {
				out[s.Names[i]] = true
			}
		}
		return true
	})
	return out
}

// refKeywords records which SPARQL keywords a query uses, one flag per row of
// Table 2. Counting is per query: a query using FILTER five times sets
// Filter once.
type refKeywords struct {
	// Query types.
	Select, Ask, Describe, Construct bool
	// Solution modifiers.
	Distinct, Reduced, Limit, Offset, OrderBy bool
	// Body operators.
	Filter, And, Union, Opt, Graph bool
	NotExists, Minus, Exists       bool
	// Aggregates and grouping.
	Count, Max, Min, Avg, Sum, Sample, GroupConcat bool
	GroupBy, Having                                bool
	// Other SPARQL 1.1 features (each <1% in the corpus; Section 4.1
	// footnote 9).
	Service, Bind, Values bool
	SubQuery              bool
	PropertyPath          bool
}

// refQueryKeywords scans one query, including subquery bodies and patterns
// nested in EXISTS constraints.
func refQueryKeywords(q *sparql.Query) refKeywords {
	var k refKeywords
	switch q.Type {
	case sparql.SelectQuery:
		k.Select = true
	case sparql.AskQuery:
		k.Ask = true
	case sparql.DescribeQuery:
		k.Describe = true
	case sparql.ConstructQuery:
		k.Construct = true
	}
	k.Distinct = q.Distinct
	k.Reduced = q.Reduced
	refScanModifiers(&k, &q.Mods)
	if q.TrailingValues != nil {
		k.Values = true
	}
	refScanPattern(&k, q.Where)
	for _, it := range q.Select {
		if it.Expr != nil {
			refScanExpr(&k, it.Expr)
		}
	}
	return k
}

func refScanModifiers(k *refKeywords, m *sparql.Modifiers) {
	if m.HasLimit {
		k.Limit = true
	}
	if m.HasOffset {
		k.Offset = true
	}
	if len(m.OrderBy) > 0 {
		k.OrderBy = true
	}
	if len(m.GroupBy) > 0 {
		k.GroupBy = true
	}
	if len(m.Having) > 0 {
		k.Having = true
	}
	for _, h := range m.Having {
		refScanExpr(k, h)
	}
	for _, o := range m.OrderBy {
		refScanExpr(k, o.Expr)
	}
	for _, g := range m.GroupBy {
		refScanExpr(k, g.Expr)
	}
}

func refScanPattern(k *refKeywords, p sparql.Pattern) {
	sparql.Walk(p, func(n sparql.Pattern) bool {
		switch t := n.(type) {
		case *sparql.Group:
			if refCountJoinable(t) >= 2 {
				k.And = true
			}
		case *sparql.Union:
			k.Union = true
		case *sparql.Optional:
			k.Opt = true
		case *sparql.GraphGraph:
			k.Graph = true
		case *sparql.MinusGraph:
			k.Minus = true
		case *sparql.ServiceGraph:
			k.Service = true
		case *sparql.Filter:
			k.Filter = true
			refScanExpr(k, t.Constraint)
		case *sparql.Bind:
			k.Bind = true
			refScanExpr(k, t.Expr)
		case *sparql.InlineData:
			k.Values = true
		case *sparql.PathPattern:
			k.PropertyPath = true
		case *sparql.SubSelect:
			k.SubQuery = true
			if t.Query != nil {
				sub := refQueryKeywords(t.Query)
				refMergeKeywords(k, sub)
			}
			return false
		}
		return true
	})
}

// refCountJoinable counts the group elements that the SPARQL algebra joins
// with And: triple and path patterns, nested groups, unions, GRAPH,
// SERVICE, VALUES, and subqueries. OPTIONAL and MINUS fold with their own
// operators; FILTER and BIND never create a join.
func refCountJoinable(g *sparql.Group) int {
	n := 0
	for _, el := range g.Elems {
		switch el.(type) {
		case *sparql.Filter, *sparql.Bind, *sparql.Optional, *sparql.MinusGraph:
		default:
			n++
		}
	}
	return n
}

func refScanExpr(k *refKeywords, e sparql.Expr) {
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		switch t := x.(type) {
		case *sparql.ExistsExpr:
			if t.Not {
				k.NotExists = true
			} else {
				k.Exists = true
			}
			refScanPattern(k, t.Pattern)
		case *sparql.AggregateExpr:
			switch t.Name {
			case "COUNT":
				k.Count = true
			case "MAX":
				k.Max = true
			case "MIN":
				k.Min = true
			case "AVG":
				k.Avg = true
			case "SUM":
				k.Sum = true
			case "SAMPLE":
				k.Sample = true
			case "GROUP_CONCAT":
				k.GroupConcat = true
			}
		}
		return true
	})
}

func refMergeKeywords(k *refKeywords, sub refKeywords) {
	// Query-type flags of subqueries are not merged (the outer query's
	// type is what Table 2 counts); everything else is.
	k.Distinct = k.Distinct || sub.Distinct
	k.Reduced = k.Reduced || sub.Reduced
	k.Limit = k.Limit || sub.Limit
	k.Offset = k.Offset || sub.Offset
	k.OrderBy = k.OrderBy || sub.OrderBy
	k.Filter = k.Filter || sub.Filter
	k.And = k.And || sub.And
	k.Union = k.Union || sub.Union
	k.Opt = k.Opt || sub.Opt
	k.Graph = k.Graph || sub.Graph
	k.NotExists = k.NotExists || sub.NotExists
	k.Minus = k.Minus || sub.Minus
	k.Exists = k.Exists || sub.Exists
	k.Count = k.Count || sub.Count
	k.Max = k.Max || sub.Max
	k.Min = k.Min || sub.Min
	k.Avg = k.Avg || sub.Avg
	k.Sum = k.Sum || sub.Sum
	k.Sample = k.Sample || sub.Sample
	k.GroupConcat = k.GroupConcat || sub.GroupConcat
	k.GroupBy = k.GroupBy || sub.GroupBy
	k.Having = k.Having || sub.Having
	k.Service = k.Service || sub.Service
	k.Bind = k.Bind || sub.Bind
	k.Values = k.Values || sub.Values
	k.SubQuery = true
	k.PropertyPath = k.PropertyPath || sub.PropertyPath
}

// refTripleCount returns the number of triple patterns in the query body,
// counting property-path patterns as one triple each (matching the
// triple-block counting of Section 4.2) and descending into nested
// patterns, subqueries, and EXISTS constraints.
func refTripleCount(q *sparql.Query) int {
	return len(q.Triples()) + len(q.PathPatterns())
}

// refOperators computes the operator set of a query body. A nil body yields
// the empty set ("none", matching the paper's treatment of bodyless
// queries).
func refOperators(q *sparql.Query) OperatorSet {
	var s OperatorSet
	sparql.Walk(q.Where, func(n sparql.Pattern) bool {
		switch t := n.(type) {
		case *sparql.Group:
			if refCountJoinable(t) >= 2 {
				s.And = true
			}
		case *sparql.Union:
			s.Union = true
		case *sparql.Optional:
			s.Opt = true
		case *sparql.GraphGraph:
			s.Graph = true
		case *sparql.Filter:
			s.Filter = true
			sparql.WalkExpr(t.Constraint, func(x sparql.Expr) bool {
				if _, ok := x.(*sparql.ExistsExpr); ok {
					s.Other = true
				}
				return true
			})
		case *sparql.MinusGraph, *sparql.ServiceGraph, *sparql.Bind,
			*sparql.InlineData, *sparql.SubSelect, *sparql.PathPattern:
			s.Other = true
			return false
		}
		return true
	})
	return s
}

// refUsesSubqueries reports whether the query contains a subquery anywhere in
// its body (Section 4.4: 0.54% of the corpus).
func refUsesSubqueries(q *sparql.Query) bool {
	found := false
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		if _, ok := p.(*sparql.SubSelect); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// refClassifyFragments computes the fragment membership of one query.
func refClassifyFragments(q *sparql.Query) Fragments {
	var f Fragments
	if q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery {
		return f
	}
	if q.Where == nil {
		return f
	}
	feats := refScanFeatures(q.Where)
	for _, t := range q.Triples() {
		if t.P.IsVar() {
			f.HasVarPredicate = true
			break
		}
	}
	f.AOF = !feats.beyondAOF
	f.CQ = f.AOF && !feats.opt && !feats.filter
	f.CPF = f.AOF && !feats.opt
	f.CQF = f.CPF && feats.allFiltersSimple
	if !f.AOF {
		return f
	}
	bt := refFoldBinary(q.Where)
	f.WellDesigned = refWellDesignedTree(bt)
	if f.WellDesigned {
		pt := refBuildPatternTree(q.Where)
		f.InterfaceWidth = refInterfaceWidth(pt)
		f.CQOF = f.InterfaceWidth <= 1
	}
	return f
}

// refWellDesigned reports whether an AOF pattern is well-designed
// (Definition 5.3), checked on the binary And/Opt fold of the pattern.
// The verdict is only meaningful for AOF patterns (triples, And, Opt,
// Filter); callers should gate on refClassifyFragments(...).AOF first.
func refWellDesigned(p sparql.Pattern) bool {
	return refWellDesignedTree(refFoldBinary(p))
}

// refBodyFeatures summarizes the feature scan used by the fragment tests.
type refBodyFeatures struct {
	opt              bool
	filter           bool
	allFiltersSimple bool
	beyondAOF        bool
}

func refScanFeatures(p sparql.Pattern) refBodyFeatures {
	f := refBodyFeatures{allFiltersSimple: true}
	sparql.Walk(p, func(n sparql.Pattern) bool {
		switch t := n.(type) {
		case *sparql.Group, *sparql.TriplePattern:
		case *sparql.Optional:
			f.opt = true
		case *sparql.Filter:
			f.filter = true
			if !refSimpleFilter(t.Constraint) {
				f.allFiltersSimple = false
			}
			// EXISTS embeds patterns, leaving the AOF fragment.
			sparql.WalkExpr(t.Constraint, func(x sparql.Expr) bool {
				if _, ok := x.(*sparql.ExistsExpr); ok {
					f.beyondAOF = true
				}
				return true
			})
		default:
			f.beyondAOF = true
			return false
		}
		return true
	})
	return f
}

// refSimpleFilter implements Definition 5.2's filter condition: the constraint
// has at most one variable, or is exactly of the form ?x = ?y.
func refSimpleFilter(e sparql.Expr) bool {
	if len(refExprVars(e)) <= 1 {
		return true
	}
	_, _, ok := refEqualityVars(e)
	return ok
}

// refEqualityVars matches constraints of the exact form ?x = ?y.
func refEqualityVars(e sparql.Expr) (string, string, bool) {
	be, ok := e.(*sparql.BinaryExpr)
	if !ok || be.Op != "=" {
		return "", "", false
	}
	l, lok := be.L.(*sparql.TermExpr)
	r, rok := be.R.(*sparql.TermExpr)
	if !lok || !rok || l.Term.Kind != sparql.TermVar || r.Term.Kind != sparql.TermVar {
		return "", "", false
	}
	return l.Term.Value, r.Term.Value, true
}

// refEqualityCollapses extracts the ?x = ?y filter pairs used to collapse
// canonical-graph nodes (footnote 20 of the paper).
func refEqualityCollapses(q *sparql.Query) [][2]string {
	var out [][2]string
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		if f, ok := p.(*sparql.Filter); ok {
			if x, y, ok := refEqualityVars(f.Constraint); ok {
				out = append(out, [2]string{x, y})
			}
		}
		return true
	})
	return out
}

// ---------- Binary algebra fold and well-designedness ----------

// refBinNode is the binary And/Opt algebra tree of an AOF pattern. Leaves are
// triple patterns or filter constraints (filters contribute variable
// occurrences per the paper's variable condition).
type refBinNode struct {
	kind   byte // 't' triple, 'f' filter, 'a' And, 'o' Opt, 'u' unit
	triple *sparql.TriplePattern
	filter sparql.Expr
	l, r   *refBinNode
}

// refFoldBinary converts a group-structured AOF pattern into the binary
// algebra: elements fold left-to-right, OPTIONAL elements become Opt nodes
// whose left operand is the accumulated prefix.
func refFoldBinary(p sparql.Pattern) *refBinNode {
	switch n := p.(type) {
	case nil:
		return nil
	case *sparql.TriplePattern:
		return &refBinNode{kind: 't', triple: n}
	case *sparql.Filter:
		return &refBinNode{kind: 'f', filter: n.Constraint}
	case *sparql.Optional:
		return &refBinNode{kind: 'o', r: refFoldBinary(n.Inner)}
	case *sparql.Group:
		var acc *refBinNode
		for _, el := range n.Elems {
			child := refFoldBinary(el)
			if child == nil {
				continue
			}
			if child.kind == 'o' && child.l == nil {
				// OPTIONAL folds against the accumulated prefix, the
				// unit pattern when nothing precedes it in this group; a
				// nested group's Opt node is one operand of the
				// enclosing fold, never its own.
				child.l = acc
				if acc == nil {
					child.l = &refBinNode{kind: 'u'}
				}
				acc = child
				continue
			}
			if acc == nil {
				acc = child
			} else {
				acc = &refBinNode{kind: 'a', l: acc, r: child}
			}
		}
		return acc
	}
	return nil
}

func refBinVars(n *refBinNode, out map[string]int) {
	if n == nil {
		return
	}
	switch n.kind {
	case 't':
		for _, t := range []sparql.Term{n.triple.S, n.triple.P, n.triple.O} {
			if t.Kind == sparql.TermVar {
				out[t.Value]++
			}
		}
	case 'f':
		for v := range refExprVars(n.filter) {
			out[v]++
		}
	default:
		refBinVars(n.l, out)
		refBinVars(n.r, out)
	}
}

// refWellDesignedTree checks Definition 5.3 on the binary tree: for every Opt
// node (L Opt R), each variable of R that does not occur in L must occur
// nowhere outside this Opt node.
func refWellDesignedTree(root *refBinNode) bool {
	if root == nil {
		return true
	}
	total := map[string]int{}
	refBinVars(root, total)
	ok := true
	var visit func(n *refBinNode)
	visit = func(n *refBinNode) {
		if n == nil || !ok {
			return
		}
		if n.kind == 'o' {
			lv := map[string]int{}
			refBinVars(n.l, lv)
			rv := map[string]int{}
			refBinVars(n.r, rv)
			self := map[string]int{}
			refBinVars(n, self)
			for v := range rv {
				if lv[v] > 0 {
					continue
				}
				// v must occur only inside this Opt occurrence.
				if total[v] != self[v] {
					ok = false
					return
				}
			}
		}
		visit(n.l)
		visit(n.r)
	}
	visit(root)
	return ok
}

// ---------- Pattern trees and interface width ----------

// refPatternTree is the Currying-based tree encoding of Example 5.4: each
// node holds the conjunctive part at its level; each OPTIONAL becomes a
// child subtree.
type refPatternTree struct {
	Triples  []*sparql.TriplePattern
	Filters  []sparql.Expr
	Children []*refPatternTree
}

// refBuildPatternTree constructs the pattern tree of a well-designed AOF
// pattern directly from the group structure (the Opt-normal-form
// transformation is semantics-preserving exactly for well-designed
// patterns, which is the only case this function is used in).
func refBuildPatternTree(p sparql.Pattern) *refPatternTree {
	node := &refPatternTree{}
	var absorb func(q sparql.Pattern)
	absorb = func(q sparql.Pattern) {
		switch n := q.(type) {
		case nil:
		case *sparql.TriplePattern:
			node.Triples = append(node.Triples, n)
		case *sparql.Filter:
			node.Filters = append(node.Filters, n.Constraint)
		case *sparql.Optional:
			node.Children = append(node.Children, refBuildPatternTree(n.Inner))
		case *sparql.Group:
			for _, el := range n.Elems {
				absorb(el)
			}
		}
	}
	absorb(p)
	return node
}

// NodeVars returns the variables of the node's own conjunctive part.
func (t *refPatternTree) NodeVars() map[string]bool {
	out := make(map[string]bool)
	for _, tr := range t.Triples {
		for _, term := range []sparql.Term{tr.S, tr.P, tr.O} {
			if term.Kind == sparql.TermVar {
				out[term.Value] = true
			}
		}
	}
	for _, f := range t.Filters {
		for v := range refExprVars(f) {
			out[v] = true
		}
	}
	return out
}

// SubtreeVars returns the variables of the whole subtree.
func (t *refPatternTree) SubtreeVars() map[string]bool {
	out := t.NodeVars()
	for _, c := range t.Children {
		for v := range c.SubtreeVars() {
			out[v] = true
		}
	}
	return out
}

// refInterfaceWidth computes the maximum number of variables shared between a
// node's conjunctive part and any child subtree (Example 5.4).
func refInterfaceWidth(t *refPatternTree) int {
	if t == nil {
		return 0
	}
	width := 0
	nv := t.NodeVars()
	for _, c := range t.Children {
		shared := 0
		for v := range c.SubtreeVars() {
			if nv[v] {
				shared++
			}
		}
		if shared > width {
			width = shared
		}
		if w := refInterfaceWidth(c); w > width {
			width = w
		}
	}
	return width
}

// refHasOptional is the walk the linter's SQL005 made for OPTIONAL.
func refHasOptional(p sparql.Pattern) bool {
	found := false
	sparql.Walk(p, func(n sparql.Pattern) bool {
		if _, ok := n.(*sparql.Optional); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// set renders the oracle's keyword flags as a Keywords set.
func (k refKeywords) set() Keywords {
	var s Keywords
	for w, on := range map[Keyword]bool{
		KwSelect: k.Select, KwAsk: k.Ask, KwDescribe: k.Describe, KwConstruct: k.Construct,
		KwDistinct: k.Distinct, KwLimit: k.Limit, KwOffset: k.Offset, KwOrderBy: k.OrderBy,
		KwFilter: k.Filter, KwAnd: k.And, KwUnion: k.Union, KwOpt: k.Opt, KwGraph: k.Graph,
		KwNotExists: k.NotExists, KwMinus: k.Minus, KwExists: k.Exists,
		KwCount: k.Count, KwMax: k.Max, KwMin: k.Min, KwAvg: k.Avg, KwSum: k.Sum,
		KwGroupBy: k.GroupBy, KwHaving: k.Having,
		KwReduced: k.Reduced, KwSample: k.Sample, KwGroupConcat: k.GroupConcat,
		KwService: k.Service, KwBind: k.Bind, KwValues: k.Values,
		KwSubQuery: k.SubQuery, KwPropertyPath: k.PropertyPath,
	} {
		if on {
			s.set(w)
		}
	}
	return s
}

func keywordNamesOf(k Keywords) string {
	var names []string
	for w := range numKeywords {
		if k.Has(w) {
			names = append(names, w.String())
		}
	}
	return strings.Join(names, ",")
}

// checkStudyOracle compares Scan and ClassifyFragments with the
// oracles on q, and ClassifyFragments and the SQL005 verdict on each
// of q's subqueries; it returns the number of queries compared.
func checkStudyOracle(t *testing.T, q *sparql.Query) int {
	t.Helper()
	src := sparql.QueryString(q)
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s = %v, oracle %v", src, what, got, want)
	}
	f := Scan(q)
	if got, want := f.Keywords, refQueryKeywords(q).set(); got != want {
		fail("Keywords", keywordNamesOf(got), keywordNamesOf(want))
	}
	if got, want := f.Operators.Key(), refOperators(q).Key(); got != want {
		fail("Operators", got, want)
	}
	if got, want := f.TripleCount(), refTripleCount(q); got != want {
		fail("TripleCount", got, want)
	}
	if got, want := f.Paths, len(q.PathPatterns()); got != want {
		fail("Paths", got, want)
	}
	if got, want := f.Subquery, refUsesSubqueries(q); got != want {
		fail("Subquery", got, want)
	}
	// The one difference: a ?x = ?x collapse, which merges nothing, is
	// no longer listed.
	var want [][2]string
	for _, c := range refEqualityCollapses(q) {
		if c[0] != c[1] {
			want = append(want, c)
		}
	}
	if !reflect.DeepEqual(f.Collapses, want) {
		fail("Collapses", f.Collapses, want)
	}
	return checkFragments(t, src, q, &f, sparql.ScopeOf(q))
}

func checkFragments(t *testing.T, src string, q *sparql.Query, f *Features, sc *sparql.Scope) int {
	t.Helper()
	got, want := ClassifyFragments(f, sc), refClassifyFragments(q)
	if got != want {
		t.Fatalf("%s: ClassifyFragments(%s) = %+v, oracle %+v", src, sparql.QueryString(q), got, want)
	}
	sql005 := q.Where != nil && want.AOF && refHasOptional(q.Where) && !refWellDesigned(q.Where)
	if got.AOF && !got.WellDesigned != sql005 {
		t.Fatalf("%s: SQL005 verdict on %s = %v, oracle %v", src, sparql.QueryString(q), !sql005, sql005)
	}
	n := 1
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		if ss, ok := p.(*sparql.SubSelect); ok && ss.Query != nil {
			if sub := sc.Sub(ss.Query); sub != nil {
				sf := Scan(ss.Query)
				n += checkFragments(t, src, ss.Query, &sf, sub)
			}
			return false
		}
		return true
	})
	return n
}

// TestStudyOracleCorpus compares Scan and ClassifyFragments with the
// oracles on every distinct parseable loggen text at scale 1e-4, seeds
// 1 and 2017.
func TestStudyOracleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	seen := map[string]bool{}
	queries, compared, opt := 0, 0, 0
	for _, seed := range []int64{1, 2017} {
		for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				seen[e] = true
				q, err := sparql.Parse(e)
				if err != nil {
					continue
				}
				queries++
				compared += checkStudyOracle(t, q)
				if f := Scan(q); f.opt && !f.beyondAOF {
					opt++
				}
			}
		}
	}
	if queries < 1000 || compared <= queries || opt < 50 {
		t.Fatalf("corpus exercised too little: %d queries, %d compared, %d AOF with OPTIONAL", queries, compared, opt)
	}
	t.Logf("%d queries, %d with their subqueries, %d AOF with OPTIONAL", queries, compared, opt)
}

// studySeeds are queries whose keywords, operators and fragments sit
// on the edges the oracles draw: subqueries, EXISTS in every position,
// paths, and OPTIONALs nested in groups.
var studySeeds = []string{
	"SELECT * WHERE { ?s ?p ?o }",
	"SELECT DISTINCT ?s WHERE { ?s <p> ?o . OPTIONAL { ?s <q> ?x } FILTER (?o > 1) { ?s <a> ?b } UNION { ?s <c> ?d } GRAPH <g> { ?s <e> ?f } } ORDER BY ?s LIMIT 10 OFFSET 5",
	"SELECT (COUNT(*) AS ?n) (MAX(?v) AS ?m) WHERE { ?s <p> ?v FILTER NOT EXISTS { ?s <bad> ?x } MINUS { ?s <worse> ?y } } GROUP BY ?s HAVING (SUM(?v) > 10)",
	"SELECT ?s WHERE { { SELECT DISTINCT ?s WHERE { ?s <p> ?o FILTER(?o = ?s) } LIMIT 3 } }",
	"SELECT ?s (EXISTS { ?s <p> ?o . ?o <q>* ?z { SELECT ?z { ?z ?p ?y } } } AS ?e) WHERE { ?s <p> ?o } ORDER BY (EXISTS { ?s <r> ?w . ?w <r> ?v })",
	"SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } OPTIONAL { ?A <web> ?W } }",
	"SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } ?z <r> ?w }",
	"SELECT * WHERE { ?x <p> ?y { OPTIONAL { ?y <q> ?z } } ?z <r> ?w }",
	"SELECT * WHERE { ?x <p> ?y { { } OPTIONAL { ?x <q> ?z } { } } FILTER(?z = ?y) }",
	"SELECT * WHERE { ?x <p> ?y { { } OPTIONAL { ?x <q> ?z } { } } }",
	"ASK { ?a <p> ?b { { OPTIONAL { ?a <q> ?c OPTIONAL { ?c <r> ?b } } } } }",
	"SELECT * WHERE { ?x <p> ?y { OPTIONAL { ?y <q> ?z } ?z <r> ?v } }",
	"ASK { OPTIONAL { ?a <p> ?b OPTIONAL { ?b <q> ?c } } ?c <r> ?a }",
	"SELECT * WHERE { ?a <p> ?b OPTIONAL { ?a <q> ?c . ?b <r> ?d OPTIONAL { ?c <s> ?d } } FILTER(?a = ?a) }",
	"SELECT * WHERE { ?x ?p ?y . _:b <q> ?y OPTIONAL { _:b <r> ?z } }",
	"SELECT * WHERE { ?s <p> ?o BIND(EXISTS { ?o <q> ?z } AS ?b) VALUES ?s { <a> } SERVICE <x> { ?s <r> ?t } }",
	"SELECT * WHERE { ?s <p> ?o FILTER(?o > ?s || EXISTS { ?s <q> ?o }) } VALUES ?o { 1 }",
	"CONSTRUCT { ?s <p> ?o } WHERE { ?s <p> ?o OPTIONAL { ?o <q> ?z } }",
	"DESCRIBE <x>",
}

// FuzzStudyOracle compares Scan and ClassifyFragments with the oracles
// on arbitrary parseable text.
func FuzzStudyOracle(f *testing.F) {
	for _, s := range studySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		checkStudyOracle(t, q)
	})
}
