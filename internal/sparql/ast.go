package sparql

import (
	"maps"
	"strings"
)

// QueryType is one of the four SPARQL query forms.
type QueryType int

// The four SPARQL query forms.
const (
	SelectQuery QueryType = iota
	AskQuery
	ConstructQuery
	DescribeQuery
)

// String returns the SPARQL keyword for the query type.
func (t QueryType) String() string {
	switch t {
	case SelectQuery:
		return "SELECT"
	case AskQuery:
		return "ASK"
	case ConstructQuery:
		return "CONSTRUCT"
	case DescribeQuery:
		return "DESCRIBE"
	}
	return "UNKNOWN"
}

// TermKind classifies RDF terms and variables appearing in patterns.
type TermKind int

// Term kinds. The paper's analysis does not distinguish IRIs, blank nodes,
// and literals (all are "constants"), but the parser preserves the kind for
// serialization fidelity and for the projection test.
const (
	TermIRI TermKind = iota
	TermVar
	TermLiteral
	TermBlank
)

// Term is an RDF term or variable in a triple pattern or expression.
type Term struct {
	Kind TermKind
	// Value is the IRI (absolute or prefixed form, as written), variable
	// name (without ? or $), literal lexical form, or blank node label.
	Value string
	// Lang is the language tag of a literal, without '@'.
	Lang string
	// Datatype is the datatype IRI of a typed literal.
	Datatype string
	// PrefixedForm records whether an IRI was written as a prefixed name.
	PrefixedForm bool
}

// RDFType is the IRI the keyword 'a' abbreviates. The parser expands 'a'
// to this IRI; the serializer contracts it back.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == TermVar }

// IsConstant reports whether the term is an IRI, literal, or blank node.
// Following the paper (Section 5), blank nodes in query patterns behave as
// variables for structural purposes; IsConstant is the syntactic notion.
func (t Term) IsConstant() bool { return t.Kind != TermVar }

// IsNodeVar reports whether the term behaves as a variable node in the
// canonical (hyper)graph: variables and blank nodes both do.
func (t Term) IsNodeVar() bool { return t.Kind == TermVar || t.Kind == TermBlank }

// Variable constructs a variable term.
func Variable(name string) Term { return Term{Kind: TermVar, Value: name} }

// IRI constructs an IRI term.
func IRI(value string) Term { return Term{Kind: TermIRI, Value: value} }

// Literal constructs a plain literal term.
func Literal(value string) Term { return Term{Kind: TermLiteral, Value: value} }

// Pattern is a node of the SPARQL graph-pattern algebra. Implementations:
// *TriplePattern, *PathPattern, *Group, *Union, *Optional, *GraphGraph,
// *MinusGraph, *ServiceGraph, *Filter, *Bind, *InlineData, *SubSelect.
type Pattern interface {
	pattern()
}

// TriplePattern is a single subject-predicate-object pattern.
type TriplePattern struct {
	S, P, O Term
}

// PathPattern is a property-path pattern: subject, path expression, object.
type PathPattern struct {
	S    Term
	Path PathExpr
	O    Term
}

// Group is a group graph pattern: a sequence of elements joined by And,
// in source order. FILTERs, BINDs, OPTIONALs etc. appear as elements at
// the position they occurred, matching SPARQL's group-level scoping.
type Group struct {
	Elems []Pattern
}

// Union is P1 UNION P2.
type Union struct {
	Left, Right Pattern
}

// Optional wraps an OPTIONAL block; its left operand is the conjunction of
// the group elements preceding it, per the SPARQL algebra translation.
type Optional struct {
	Inner Pattern
}

// GraphGraph is GRAPH <iri-or-var> { ... }.
type GraphGraph struct {
	Name  Term
	Inner Pattern
}

// MinusGraph is MINUS { ... }.
type MinusGraph struct {
	Inner Pattern
}

// ServiceGraph is SERVICE [SILENT] <iri-or-var> { ... }.
type ServiceGraph struct {
	Silent bool
	Name   Term
	Inner  Pattern
}

// Filter is FILTER constraint.
type Filter struct {
	Constraint Expr
}

// Bind is BIND(expr AS ?var).
type Bind struct {
	Expr Expr
	Var  Term
}

// InlineData is a VALUES block.
type InlineData struct {
	Vars []Term
	// Rows holds one row per binding; UNDEF entries have Kind TermVar with
	// empty Value and Undef set in the parallel mask.
	Rows  [][]Term
	Undef [][]bool
}

// SubSelect is a subquery appearing inside a group graph pattern.
type SubSelect struct {
	Query *Query
}

func (*TriplePattern) pattern() {}
func (*PathPattern) pattern()   {}
func (*Group) pattern()         {}
func (*Union) pattern()         {}
func (*Optional) pattern()      {}
func (*GraphGraph) pattern()    {}
func (*MinusGraph) pattern()    {}
func (*ServiceGraph) pattern()  {}
func (*Filter) pattern()        {}
func (*Bind) pattern()          {}
func (*InlineData) pattern()    {}
func (*SubSelect) pattern()     {}

// Expr is a SPARQL expression node. Implementations: *BinaryExpr,
// *UnaryExpr, *FuncCall, *ExistsExpr, *TermExpr, *InExpr, *AggregateExpr.
type Expr interface {
	expr()
}

// BinaryExpr applies an infix operator: || && = != < > <= >= + - * /.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies a prefix operator: ! - +.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall is a builtin call (BOUND, LANG, REGEX, ...) or a custom function
// called by IRI.
type FuncCall struct {
	// Name is the uppercased builtin keyword, or the IRI for custom calls.
	Name     string
	IRICall  bool
	Args     []Expr
	Distinct bool // e.g. COUNT(DISTINCT ...) parsed as FuncCall only for non-aggregates
}

// AggregateExpr is one of COUNT, SUM, MIN, MAX, AVG, SAMPLE, GROUP_CONCAT.
type AggregateExpr struct {
	Name      string // uppercased
	Distinct  bool
	Star      bool // COUNT(*)
	Arg       Expr
	Separator string // GROUP_CONCAT ; SEPARATOR = "..."
	HasSep    bool
}

// ExistsExpr is EXISTS { ... } or NOT EXISTS { ... }.
type ExistsExpr struct {
	Not     bool
	Pattern Pattern
}

// TermExpr wraps a term used as an expression atom.
type TermExpr struct {
	Term Term
}

// InExpr is expr [NOT] IN (e1, ..., ek).
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
}

func (*BinaryExpr) expr()    {}
func (*UnaryExpr) expr()     {}
func (*FuncCall) expr()      {}
func (*AggregateExpr) expr() {}
func (*ExistsExpr) expr()    {}
func (*TermExpr) expr()      {}
func (*InExpr) expr()        {}

// SelectItem is one projection element: a variable, or (expr AS ?var).
type SelectItem struct {
	Var  Term
	Expr Expr // nil for plain variables
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Desc     bool
	Explicit bool // ASC/DESC written explicitly
	Expr     Expr
}

// GroupKey is one GROUP BY key: an expression, optionally bound AS ?var.
type GroupKey struct {
	Expr  Expr
	Var   Term
	AsVar bool
}

// Modifiers aggregates the solution modifiers of a query.
type Modifiers struct {
	GroupBy   []GroupKey
	Having    []Expr
	OrderBy   []OrderKey
	Limit     int64
	HasLimit  bool
	Offset    int64
	HasOffset bool
}

// DatasetClause is FROM <iri> or FROM NAMED <iri>.
type DatasetClause struct {
	Named bool
	IRI   Term
}

// Prologue holds BASE and PREFIX declarations.
type Prologue struct {
	Base     string
	Prefixes []PrefixDecl
}

// PrefixDecl is PREFIX ns: <iri>.
type PrefixDecl struct {
	Name string // without trailing ':'
	IRI  string
}

// Prefixes maps a prologue's prefix names to their IRIs: the one
// prefix environment the evaluator, the linter and the canonical
// serializer expand prefixed names against.
type Prefixes map[string]string

// PrefixMap collects the PREFIX declarations; a later declaration of
// the same name wins.
func (p Prologue) PrefixMap() Prefixes {
	m := make(Prefixes, len(p.Prefixes))
	for _, d := range p.Prefixes {
		m[d.Name] = d.IRI
	}
	return m
}

// Expand resolves a prefixed name to its full IRI text. Text that is
// not in prefixed form, has no colon, or names an undeclared prefix
// comes back unchanged.
func (m Prefixes) Expand(iri string, prefixed bool) string {
	if !prefixed {
		return iri
	}
	i := strings.IndexByte(iri, ':')
	if i < 0 {
		return iri
	}
	if base, ok := m[iri[:i]]; ok {
		return base + iri[i+1:]
	}
	return iri
}

// Query is a complete SPARQL query.
type Query struct {
	Prologue Prologue
	Type     QueryType

	// SELECT-specific.
	Distinct   bool
	Reduced    bool
	SelectStar bool
	Select     []SelectItem

	// DESCRIBE-specific.
	DescribeStar  bool
	DescribeTerms []Term

	// CONSTRUCT-specific.
	Template []*TriplePattern
	// ConstructWhere marks the abbreviated CONSTRUCT WHERE { ... } form.
	ConstructWhere bool

	Datasets []DatasetClause

	// Where is the query body; nil for bodyless DESCRIBE queries.
	Where Pattern

	Mods Modifiers

	// TrailingValues is the optional VALUES block after the modifiers.
	TrailingValues *InlineData
}

// HasBody reports whether the query has a WHERE pattern. Roughly 4.5% of
// the paper's corpus (bodyless DESCRIBE queries) has none.
func (q *Query) HasBody() bool { return q.Where != nil }

// Walk calls fn for every pattern node reachable from p in depth-first
// pre-order, including subquery bodies and EXISTS patterns inside filters.
// fn returning false prunes descent below the node.
func Walk(p Pattern, fn func(Pattern) bool) {
	if p == nil || !fn(p) {
		return
	}
	switch n := p.(type) {
	case *Group:
		for _, e := range n.Elems {
			Walk(e, fn)
		}
	case *Union:
		Walk(n.Left, fn)
		Walk(n.Right, fn)
	case *Optional:
		Walk(n.Inner, fn)
	case *GraphGraph:
		Walk(n.Inner, fn)
	case *MinusGraph:
		Walk(n.Inner, fn)
	case *ServiceGraph:
		Walk(n.Inner, fn)
	case *Filter:
		WalkExprPatterns(n.Constraint, fn)
	case *Bind:
		WalkExprPatterns(n.Expr, fn)
	case *SubSelect:
		if n.Query != nil && n.Query.Where != nil {
			Walk(n.Query.Where, fn)
		}
	}
}

// WalkExprPatterns descends into patterns nested inside expressions
// (EXISTS / NOT EXISTS).
func WalkExprPatterns(e Expr, fn func(Pattern) bool) {
	WalkExpr(e, func(x Expr) bool {
		if ex, ok := x.(*ExistsExpr); ok {
			Walk(ex.Pattern, fn)
		}
		return true
	})
}

// WalkExpr calls fn for every expression node reachable from e in
// depth-first pre-order. fn returning false prunes descent.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		WalkExpr(n.L, fn)
		WalkExpr(n.R, fn)
	case *UnaryExpr:
		WalkExpr(n.X, fn)
	case *FuncCall:
		for _, a := range n.Args {
			WalkExpr(a, fn)
		}
	case *AggregateExpr:
		WalkExpr(n.Arg, fn)
	case *InExpr:
		WalkExpr(n.X, fn)
		for _, a := range n.List {
			WalkExpr(a, fn)
		}
	}
}

// Vars returns the set of variable names occurring in the pattern,
// including inside filters, binds, and nested structures. The result map
// is keyed by variable name without the leading question mark.
func Vars(p Pattern) map[string]bool {
	out := make(map[string]bool)
	collectVars(p, out)
	return out
}

func collectVars(p Pattern, out map[string]bool) {
	Walk(p, func(n Pattern) bool {
		switch t := n.(type) {
		case *TriplePattern:
			addVar(t.S, out)
			addVar(t.P, out)
			addVar(t.O, out)
		case *PathPattern:
			addVar(t.S, out)
			addVar(t.O, out)
		case *GraphGraph:
			addVar(t.Name, out)
		case *ServiceGraph:
			addVar(t.Name, out)
		case *Filter:
			collectExprVars(t.Constraint, out)
		case *Bind:
			collectExprVars(t.Expr, out)
			addVar(t.Var, out)
		case *InlineData:
			for _, v := range t.Vars {
				addVar(v, out)
			}
		case *SubSelect:
			// A subquery only exposes its projected variables.
			if t.Query != nil {
				for v := range t.Query.ProjectedVars() {
					out[v] = true
				}
			}
			return false
		}
		return true
	})
}

// ExprVars returns the set of variable names in an expression, including
// variables inside EXISTS patterns.
func ExprVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectExprVars(e, out)
	return out
}

func collectExprVars(e Expr, out map[string]bool) {
	WalkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *TermExpr:
			addVar(t.Term, out)
		case *ExistsExpr:
			collectVars(t.Pattern, out)
		}
		return true
	})
}

func addVar(t Term, out map[string]bool) {
	if t.Kind == TermVar && t.Value != "" {
		out[t.Value] = true
	}
}

// InScopeVars returns the variables in scope in p (SPARQL 1.1 §18.2.1),
// with those only a BIND introduces kept apart in bindOnly. Variables
// that occur only inside FILTER constraints (EXISTS included), MINUS
// blocks or a subquery's unprojected positions are not in scope; blank
// nodes are not variables.
func InScopeVars(p Pattern) (scope, bindOnly map[string]bool) {
	scope = make(map[string]bool)
	bindOnly = make(map[string]bool)
	var walk func(n Pattern)
	walk = func(n Pattern) {
		switch t := n.(type) {
		case *TriplePattern:
			addVar(t.S, scope)
			addVar(t.P, scope)
			addVar(t.O, scope)
		case *PathPattern:
			addVar(t.S, scope)
			addVar(t.O, scope)
		case *Group:
			for _, el := range t.Elems {
				walk(el)
			}
		case *Union:
			walk(t.Left)
			walk(t.Right)
		case *Optional:
			walk(t.Inner)
		case *GraphGraph:
			addVar(t.Name, scope)
			walk(t.Inner)
		case *ServiceGraph:
			addVar(t.Name, scope)
			walk(t.Inner)
		case *Bind:
			addVar(t.Var, bindOnly)
		case *InlineData:
			for _, v := range t.Vars {
				addVar(v, scope)
			}
		case *SubSelect:
			if t.Query != nil {
				for v := range t.Query.ProjectedVars() {
					scope[v] = true
				}
			}
		}
		// MINUS and FILTER bind nothing in the enclosing scope.
	}
	walk(p)
	// A variable bound both by BIND and by a pattern is simply in scope.
	for v := range scope {
		delete(bindOnly, v)
	}
	return scope, bindOnly
}

// ProjectedVars returns the set of variables the query returns: for
// explicit SELECT lists, the listed/aliased variables; for SELECT *, the
// variables in scope in the WHERE clause (InScopeVars, BIND's included)
// and those a trailing VALUES clause binds, whether or not any solution
// binds them; for DESCRIBE, the described variables, and for DESCRIBE *
// the same in-scope set as SELECT *; for ASK and CONSTRUCT, none.
func (q *Query) ProjectedVars() map[string]bool {
	out := make(map[string]bool)
	star := false
	switch q.Type {
	case SelectQuery:
		star = q.SelectStar
		for _, it := range q.Select {
			addVar(it.Var, out)
		}
	case DescribeQuery:
		star = q.DescribeStar
		for _, t := range q.DescribeTerms {
			addVar(t, out)
		}
	}
	if !star {
		return out
	}
	scope, bindOnly := InScopeVars(q.Where)
	maps.Copy(out, scope)
	maps.Copy(out, bindOnly)
	if q.TrailingValues != nil {
		for _, v := range q.TrailingValues.Vars {
			addVar(v, out)
		}
	}
	return out
}

// Triples returns every triple pattern in the query body (including those
// nested in OPTIONAL, UNION, GRAPH, subqueries and EXISTS), in source order.
// Property-path patterns are not included; see PathPatterns.
func (q *Query) Triples() []*TriplePattern {
	var out []*TriplePattern
	Walk(q.Where, func(p Pattern) bool {
		if t, ok := p.(*TriplePattern); ok {
			out = append(out, t)
		}
		return true
	})
	return out
}

// PathPatterns returns every property-path pattern in the query body.
func (q *Query) PathPatterns() []*PathPattern {
	var out []*PathPattern
	Walk(q.Where, func(p Pattern) bool {
		if t, ok := p.(*PathPattern); ok {
			out = append(out, t)
		}
		return true
	})
	return out
}
