package sparql

import (
	"strconv"
	"strings"
)

// QueryString returns the canonical text form of the whole query —
// PatternString extended to a full serialization covering the query
// form, DISTINCT/REDUCED, VALUES, aggregates, and every solution
// modifier (GROUP BY/HAVING/ORDER BY/LIMIT/OFFSET). Variables are
// renamed to ?v0, ?v1, ... in first-occurrence order and prefixed
// names are expanded against the prologue, so two queries that differ
// only in whitespace, prefix declarations, or variable names serialize
// identically. The output re-parses to itself (a fixpoint, fuzz-tested
// by FuzzQueryString), which makes it usable both as a structural
// dedup key and as the result-cache fingerprint: the full query
// including modifiers determines the answer, so nothing less may key a
// cache.
func QueryString(q *Query) string {
	fp := &fingerprinter{prefixes: q.Prologue.PrefixMap(), names: make(map[string]string)}
	clone := fp.rewriteQuery(q)
	// Drop the prologue: prefixes were expanded away.
	clone.Prologue = Prologue{}
	return clone.String()
}

// Fingerprint is the canonical query text used for structural
// deduplication — a refinement over the paper's exact-text dedup that
// its Section 2 implicitly uses (the USEWOD anonymisation already
// normalized whitespace). It is QueryString by construction: the
// analytics dedup key and the result-cache key are the same canonical
// form.
func Fingerprint(q *Query) string { return QueryString(q) }

// CanonPatternStrings canonicalizes several patterns under one shared
// renaming context (prefixes expanded against prologue, variables
// renamed in first-occurrence order across all patterns in argument
// order) and returns their PatternString forms. Sharing the context
// keeps the comparison sound: UNION branches over the same variables
// canonicalize equal, while branches over different variables — which
// bind different solutions — stay distinct.
func CanonPatternStrings(prologue Prologue, patterns ...Pattern) []string {
	fp := &fingerprinter{prefixes: prologue.PrefixMap(), names: make(map[string]string)}
	out := make([]string, len(patterns))
	for i, p := range patterns {
		out[i] = PatternString(fp.pattern(p))
	}
	return out
}

type fingerprinter struct {
	prefixes Prefixes
	names    map[string]string
	next     int
}

func (fp *fingerprinter) renameVar(name string) string {
	if nn, ok := fp.names[name]; ok {
		return nn
	}
	nn := "v" + strconv.Itoa(fp.next)
	fp.next++
	fp.names[name] = nn
	return nn
}

func (fp *fingerprinter) term(t Term) Term {
	switch t.Kind {
	case TermVar:
		t.Value = fp.renameVar(t.Value)
	case TermBlank:
		// Blank nodes are scoped like variables; canonicalize them in
		// the same namespace so labels do not matter.
		t.Value = fp.renameVar("_:" + t.Value)
	case TermIRI:
		t.Value = fp.prefixes.Expand(t.Value, t.PrefixedForm)
		// Canonical rendering: always the bracketed full form. The
		// parser's predicate-path collapse marks bracketed predicates
		// PrefixedForm (they render bare), so without this reset the
		// same IRI would serialize differently by syntactic position
		// and spelling — and alpha-equivalent queries would miss each
		// other's cache entries.
		t.PrefixedForm = false
	}
	return t
}

func (fp *fingerprinter) rewriteQuery(q *Query) *Query {
	out := *q
	out.Select = nil
	for _, it := range q.Select {
		ni := SelectItem{Var: fp.term(it.Var)}
		if it.Expr != nil {
			ni.Expr = fp.expr(it.Expr)
		}
		out.Select = append(out.Select, ni)
	}
	out.DescribeTerms = nil
	for _, t := range q.DescribeTerms {
		out.DescribeTerms = append(out.DescribeTerms, fp.term(t))
	}
	out.Template = nil
	for _, t := range q.Template {
		nt := &TriplePattern{S: fp.term(t.S), P: fp.term(t.P), O: fp.term(t.O)}
		out.Template = append(out.Template, nt)
	}
	out.Datasets = nil
	for _, d := range q.Datasets {
		out.Datasets = append(out.Datasets, DatasetClause{Named: d.Named, IRI: fp.term(d.IRI)})
	}
	out.Where = fp.pattern(q.Where)
	out.Mods = fp.modifiers(q.Mods)
	if q.TrailingValues != nil {
		out.TrailingValues = fp.inlineData(q.TrailingValues)
	}
	return &out
}

func (fp *fingerprinter) modifiers(m Modifiers) Modifiers {
	out := m
	out.GroupBy = nil
	for _, gk := range m.GroupBy {
		ngk := GroupKey{Expr: fp.expr(gk.Expr), AsVar: gk.AsVar}
		if gk.AsVar {
			ngk.Var = fp.term(gk.Var)
		}
		out.GroupBy = append(out.GroupBy, ngk)
	}
	out.Having = nil
	for _, h := range m.Having {
		out.Having = append(out.Having, fp.expr(h))
	}
	out.OrderBy = nil
	for _, ok := range m.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderKey{Desc: ok.Desc, Explicit: ok.Explicit, Expr: fp.expr(ok.Expr)})
	}
	return out
}

func (fp *fingerprinter) pattern(p Pattern) Pattern {
	switch n := p.(type) {
	case nil:
		return nil
	case *TriplePattern:
		return &TriplePattern{S: fp.term(n.S), P: fp.term(n.P), O: fp.term(n.O)}
	case *PathPattern:
		return &PathPattern{S: fp.term(n.S), Path: fp.path(n.Path), O: fp.term(n.O)}
	case *Group:
		out := &Group{}
		for _, el := range n.Elems {
			out.Elems = append(out.Elems, fp.pattern(el))
		}
		return out
	case *Union:
		return &Union{Left: fp.pattern(n.Left), Right: fp.pattern(n.Right)}
	case *Optional:
		return &Optional{Inner: fp.pattern(n.Inner)}
	case *GraphGraph:
		return &GraphGraph{Name: fp.term(n.Name), Inner: fp.pattern(n.Inner)}
	case *MinusGraph:
		return &MinusGraph{Inner: fp.pattern(n.Inner)}
	case *ServiceGraph:
		return &ServiceGraph{Silent: n.Silent, Name: fp.term(n.Name), Inner: fp.pattern(n.Inner)}
	case *Filter:
		return &Filter{Constraint: fp.expr(n.Constraint)}
	case *Bind:
		return &Bind{Expr: fp.expr(n.Expr), Var: fp.term(n.Var)}
	case *InlineData:
		return fp.inlineData(n)
	case *SubSelect:
		return &SubSelect{Query: fp.rewriteQuery(n.Query)}
	}
	return p
}

func (fp *fingerprinter) inlineData(vd *InlineData) *InlineData {
	out := &InlineData{Undef: vd.Undef}
	for _, v := range vd.Vars {
		out.Vars = append(out.Vars, fp.term(v))
	}
	for _, row := range vd.Rows {
		nrow := make([]Term, len(row))
		for i, t := range row {
			nrow[i] = fp.term(t)
		}
		out.Rows = append(out.Rows, nrow)
	}
	return out
}

func (fp *fingerprinter) expr(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *TermExpr:
		return &TermExpr{Term: fp.term(n.Term)}
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, L: fp.expr(n.L), R: fp.expr(n.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: n.Op, X: fp.expr(n.X)}
	case *FuncCall:
		out := &FuncCall{Name: n.Name, IRICall: n.IRICall, Distinct: n.Distinct}
		for _, a := range n.Args {
			out.Args = append(out.Args, fp.expr(a))
		}
		return out
	case *AggregateExpr:
		out := *n
		out.Arg = fp.expr(n.Arg)
		return &out
	case *ExistsExpr:
		return &ExistsExpr{Not: n.Not, Pattern: fp.pattern(n.Pattern)}
	case *InExpr:
		out := &InExpr{X: fp.expr(n.X), Not: n.Not}
		for _, a := range n.List {
			out.List = append(out.List, fp.expr(a))
		}
		return out
	}
	return e
}

func (fp *fingerprinter) path(p PathExpr) PathExpr {
	switch n := p.(type) {
	case *PathIRI:
		// A path IRI carries no PrefixedForm flag: anything without
		// "://" is tried as a prefixed name.
		return &PathIRI{IRI: fp.prefixes.Expand(n.IRI, !strings.Contains(n.IRI, "://"))}
	case *PathInverse:
		return &PathInverse{X: fp.path(n.X)}
	case *PathSeq:
		out := &PathSeq{}
		for _, part := range n.Parts {
			out.Parts = append(out.Parts, fp.path(part))
		}
		return out
	case *PathAlt:
		out := &PathAlt{}
		for _, part := range n.Parts {
			out.Parts = append(out.Parts, fp.path(part))
		}
		return out
	case *PathMod:
		return &PathMod{X: fp.path(n.X), Mod: n.Mod}
	case *PathNeg:
		out := &PathNeg{}
		for _, part := range n.Set {
			out.Set = append(out.Set, fp.path(part))
		}
		return out
	}
	return p
}
