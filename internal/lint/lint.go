// Package lint is static analysis over the sparql AST: a fixed table of
// passes, each with a stable diagnostic code and severity, run in one
// walk of each variable scope that emits positioned diagnostics. The
// AST carries no byte offsets, so a diagnostic's position is a
// structural path ("where.group[2].filter") plus a serialized snippet
// of the offending fragment.
//
// The pass suite is grounded in the paper's findings about real query
// logs (Bonifati, Martens, Timm: "An Analytical Study of Large SPARQL
// Query Logs"): unsatisfiable filters, cartesian products, dead
// variables, non-well-designed OPTIONAL, duplicate UNION branches, and
// collapsible variable equalities are all statically detectable
// pathologies that predict evaluation cost or emptiness before a
// single triple is touched. Beyond reporting, the same machinery feeds
// the evaluator: EmptyUnder proves a WHERE clause yields no solutions
// so eval can short-circuit without index probes.
//
// Passes do not decide which variables are bound: they read the
// query's sparql.Scope. A variable it has Mentioned but not Bindable
// is dead; like an EXISTS body, a MINUS body binds only inside itself.
package lint

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sparqlog/internal/analysis"
	"sparqlog/internal/sparql"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, from least to most severe.
const (
	Info Severity = iota
	Warning
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "unknown"
}

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	// Code is the stable pass identifier (SQL001..).
	Code     string
	Severity Severity
	// Path locates the offending node structurally, since the AST has
	// no source positions: "where", "where.group[2].optional", ...
	Path    string
	Message string
	// Snippet is the offending fragment re-serialized, when one exists.
	Snippet string
}

// String renders the diagnostic in one line.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s %s %s: %s", d.Code, d.Severity, d.Path, d.Message)
}

// Pass describes one analysis: its stable diagnostic code, name,
// documentation and the severity of what it reports.
type Pass struct {
	Code     string
	Name     string
	Doc      string
	Severity Severity
}

// Passes returns a copy of the passes, sorted by code.
func Passes() []*Pass { return slices.Clone(passes) }

// Result is the outcome of linting one query.
type Result struct {
	Diagnostics []Diagnostic
	// Empty reports that the WHERE clause provably yields no solutions
	// on any dataset (see EmptyUnder).
	Empty bool
	// Scope is the query's variable analysis the passes read, for a
	// caller with more scope questions.
	Scope *sparql.Scope
	// Prefixes is the query's prefix map (its Prologue's PrefixMap),
	// which the passes expanded prefixed names against. It may be shared
	// with other callers and must not be modified.
	Prefixes sparql.Prefixes
	// Features is the query's analysis.Scan, which SQL005 reads, for a
	// caller that would scan the query again.
	Features analysis.Features
}

// Codes returns the distinct diagnostic codes, sorted. It relies on
// Diagnostics being ordered by code, as Run returns them, and drops
// adjacent duplicates.
func (r *Result) Codes() []string {
	var out []string
	for _, d := range r.Diagnostics {
		if len(out) == 0 || out[len(out)-1] != d.Code {
			out = append(out, d.Code)
		}
	}
	return out
}

// Max returns the highest severity present, or ok=false without
// diagnostics.
func (r *Result) Max() (Severity, bool) {
	if len(r.Diagnostics) == 0 {
		return Info, false
	}
	max := Info
	for _, d := range r.Diagnostics {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// Run applies every pass to the query and returns the combined
// diagnostics in pass-code order, and within one pass's, scope by
// scope (the top query first, then its subqueries in pre-order) and
// each scope's in pre-order.
//
// One walk of each scope's WHERE clause runs every pass that fires on
// a node of it (visit); a subquery met on the walk is queued right
// after its scope, which keeps the scopes in pre-order. Every pass
// reports a scope's diagnostics before the next scope's, so a stable
// sort by code puts them in order.
func Run(q *sparql.Query) *Result {
	l := &linter{q: q, prefixes: q.Prologue.PrefixMap()}
	top := l.scope(sparql.ScopeOf(q), "")
	var f analysis.Features
	scopes := []*scope{top}
	for i := 0; i < len(scopes); i++ {
		s := scopes[i]
		l.checkDeadProjection(s)
		if fs := l.checkNonWellDesigned(s); s == top {
			f = fs
		}
		l.checkUnboundOrderKey(s)
		var subs []*scope
		if s.sc.Query.Where != nil {
			walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) {
				if ss, ok := p.(*sparql.SubSelect); ok && ss.Query != nil {
					subs = append(subs, l.scope(s.sc.Sub(ss.Query), at.String()+"."))
				}
				l.visit(s, p, at)
			})
		}
		scopes = slices.Insert(scopes, i+1, subs...)
	}
	slices.SortStableFunc(l.diags, func(a, b Diagnostic) int { return strings.Compare(a.Code, b.Code) })
	return &Result{Diagnostics: l.diags, Empty: EmptyUnder(top.sc, l.prefixes), Scope: top.sc, Prefixes: l.prefixes, Features: f}
}

// linter is the state of one Run: the query, the prefix map its
// scopes fold under, and the diagnostics reported so far.
type linter struct {
	q        *sparql.Query
	prefixes sparql.Prefixes
	diags    []Diagnostic
}

// report emits one diagnostic of pass p.
func (l *linter) report(p *Pass, path, snippet, format string, args ...any) {
	l.diags = append(l.diags, Diagnostic{
		Code:     p.Code,
		Severity: p.Severity,
		Path:     path,
		Message:  fmt.Sprintf(format, args...),
		Snippet:  snippet,
	})
}

// location is where a walk stands: the structural path of the node
// being visited, kept as steps under a root and rendered only when
// asked (a pass that reports, a subquery opening a scope). Most nodes
// are never reported on, so most paths are never built.
type location struct {
	root  string
	steps []step
	minus int // how many MINUS bodies the walk stands in
}

// step is one edge of the path: a fixed label (".optional", ...) or,
// with label empty, the element index within a group.
type step struct {
	label string
	index int
}

// String renders the path: "where.group[2].optional", ...
func (l *location) String() string {
	s := l.root
	for _, st := range l.steps {
		if st.label == "" {
			st.label = ".group[" + strconv.Itoa(st.index) + "]"
		}
		s += st.label
	}
	return s
}

// walkPath visits every pattern node reachable from p in pre-order,
// telling fn where each one is; fn renders at only to report, and must
// not keep it past the call. The walk stays within one variable scope:
// it does not descend into EXISTS bodies or subquery bodies (Run walks
// a subquery as a scope of its own). Use sparql.Walk when cross-scope
// traversal matters.
func walkPath(p sparql.Pattern, root string, fn func(p sparql.Pattern, at *location)) {
	w := &walker{fn: fn}
	w.at = location{root: root, steps: w.space[:0]}
	w.walk(p)
}

// walker is one walkPath traversal; space holds the steps of the usual
// nesting depths without a further allocation.
type walker struct {
	fn    func(p sparql.Pattern, at *location)
	at    location
	space [4]step
}

func (w *walker) down(p sparql.Pattern, st step) {
	w.at.steps = append(w.at.steps, st)
	w.walk(p)
	w.at.steps = w.at.steps[:len(w.at.steps)-1]
}

func (w *walker) walk(p sparql.Pattern) {
	if p == nil {
		return
	}
	w.fn(p, &w.at)
	switch n := p.(type) {
	case *sparql.Group:
		for i, e := range n.Elems {
			w.down(e, step{index: i})
		}
	case *sparql.Union:
		w.down(n.Left, step{label: ".union.left"})
		w.down(n.Right, step{label: ".union.right"})
	case *sparql.Optional:
		w.down(n.Inner, step{label: ".optional"})
	case *sparql.GraphGraph:
		w.down(n.Inner, step{label: ".graph"})
	case *sparql.MinusGraph:
		w.at.minus++
		w.down(n.Inner, step{label: ".minus"})
		w.at.minus--
	case *sparql.ServiceGraph:
		w.down(n.Inner, step{label: ".service"})
	}
}
