// Package lint is a pass-based static-analysis framework over the
// sparql AST, modeled on go/analysis: each pass registers itself with
// a stable diagnostic code and severity, walks the query, and emits
// positioned diagnostics. The AST carries no byte offsets, so a
// diagnostic's position is a structural path ("where.group[2].filter")
// plus a serialized snippet of the offending fragment.
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
	"sort"
	"strconv"
	"strings"

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

// Pass is one registered analysis. Run receives a per-query context
// and reports diagnostics through it.
type Pass struct {
	Code     string
	Name     string
	Doc      string
	Severity Severity
	Run      func(c *Ctx)
}

// passes is the registry, kept sorted by code as passes register.
var passes []*Pass

func register(p *Pass) {
	passes = append(passes, p)
	slices.SortFunc(passes, func(a, b *Pass) int { return strings.Compare(a.Code, b.Code) })
}

// Passes returns a copy of the registered passes, sorted by code.
func Passes() []*Pass { return slices.Clone(passes) }

// Ctx is the shared state one Run invocation exposes to every pass.
type Ctx struct {
	Query *sparql.Query

	// scopes is the query's variable scopes (the top query first, then
	// each subquery), built once per Run from one sparql.ScopeOf and
	// shared by every pass; passes only read them.
	scopes []*scope

	current *Pass
	diags   []Diagnostic
}

// Report emits one diagnostic for the running pass.
func (c *Ctx) Report(path, snippet, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Code:     c.current.Code,
		Severity: c.current.Severity,
		Path:     path,
		Message:  fmt.Sprintf(format, args...),
		Snippet:  snippet,
	})
}

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
}

// Codes returns the distinct diagnostic codes, sorted.
func (r *Result) Codes() []string {
	seen := make(map[string]bool, len(r.Diagnostics))
	var out []string
	for _, d := range r.Diagnostics {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	sort.Strings(out)
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

// Run applies every registered pass to the query and returns the
// combined diagnostics in pass-code order.
func Run(q *sparql.Query) *Result {
	c := &Ctx{Query: q, scopes: scopes(sparql.ScopeOf(q))}
	for _, p := range passes {
		c.current = p
		p.Run(c)
	}
	top := c.scopes[0]
	prefixes := top.f[0].prefixes
	return &Result{Diagnostics: c.diags, Empty: EmptyUnder(top.sc, prefixes), Scope: top.sc, Prefixes: prefixes}
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
// it does not descend into EXISTS bodies or subquery bodies (passes
// visit those through their own scope; see scopes in passes.go). Use
// sparql.Walk when cross-scope traversal matters.
func walkPath(p sparql.Pattern, root string, fn func(p sparql.Pattern, at *location) bool) {
	w := &walker{fn: fn}
	w.at = location{root: root, steps: w.space[:0]}
	w.walk(p)
}

// walker is one walkPath traversal; space holds the steps of the usual
// nesting depths without a further allocation.
type walker struct {
	fn    func(p sparql.Pattern, at *location) bool
	at    location
	space [4]step
}

func (w *walker) down(p sparql.Pattern, st step) {
	w.at.steps = append(w.at.steps, st)
	w.walk(p)
	w.at.steps = w.at.steps[:len(w.at.steps)-1]
}

func (w *walker) walk(p sparql.Pattern) {
	if p == nil || !w.fn(p, &w.at) {
		return
	}
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
