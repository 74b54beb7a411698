package sparql

import (
	"slices"
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
	// num is the number the parser gave a variable or blank node label:
	// each distinct one of a text is numbered from 1, variables and
	// labels alike, in the order they are read; 0 for any other term and
	// for a term the parser did not make. ScopeOf numbers a scope by it.
	// It fills the struct's padding, so a Term stays 64 bytes.
	num int32
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
	// Name is the uppercased builtin keyword, or for custom calls the
	// IRI as written (a full IRI or a prefixed name).
	Name    string
	IRICall bool
	// PrefixedForm records whether a custom call's IRI was written as a
	// prefixed name, exactly as Term.PrefixedForm does.
	PrefixedForm bool
	Args         []Expr
	Distinct     bool // e.g. COUNT(DISTINCT ...) parsed as FuncCall only for non-aggregates
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

// Grouped reports whether the query's solutions are grouped (SPARQL 1.1
// §18.2.4.1): it has a GROUP BY, or an aggregate in SELECT, HAVING or
// ORDER BY, which groups all solutions into one group.
func (q *Query) Grouped() bool {
	if len(q.Mods.GroupBy) > 0 {
		return true
	}
	for _, it := range q.Select {
		if hasAggregate(it.Expr) {
			return true
		}
	}
	for _, k := range q.Mods.OrderBy {
		if hasAggregate(k.Expr) {
			return true
		}
	}
	return slices.ContainsFunc(q.Mods.Having, hasAggregate)
}

func hasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*AggregateExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// Triples returns every triple pattern in the query body (including those
// nested in OPTIONAL, UNION, GRAPH, subqueries and EXISTS), in source order.
// Property-path patterns are not included; see PathPatterns.
func (q *Query) Triples() []*TriplePattern { return q.AppendTriples(nil) }

// AppendTriples appends the triple patterns Triples returns to dst, so a
// caller can collect them into storage it reuses.
func (q *Query) AppendTriples(dst []*TriplePattern) []*TriplePattern {
	Walk(q.Where, func(p Pattern) bool {
		if t, ok := p.(*TriplePattern); ok {
			dst = append(dst, t)
		}
		return true
	})
	return dst
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
