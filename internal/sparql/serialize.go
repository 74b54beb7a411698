package sparql

import (
	"strconv"
	"strings"
)

// String renders the query back to SPARQL concrete syntax. Every IRI is
// written the way it was parsed (a prefixed name bare, a full IRI in
// brackets), so the output re-parses to a structurally identical AST
// (modulo whitespace), which the serializer tests verify; this property
// lets the synthetic log generator feed generated queries through the
// exact same lex/parse pipeline the analyzer uses for real logs.
func (q *Query) String() string {
	var w writer
	w.query(q)
	return w.String()
}

// writer is the one SPARQL writer: String, PatternString, ExprString,
// PathString, QueryString and CanonPatternStrings all render through
// it. With a canon it writes the canonical form instead of the text as
// parsed (see QueryString).
type writer struct {
	strings.Builder
	canon *canon
}

// canon is the renaming state of one canonical rendering: variables and
// blank nodes are numbered ?v0, ?v1, ... in first-occurrence order, and
// prefixed names are expanded against the prologue.
type canon struct {
	prefixes Prefixes
	names    map[string]int
}

func newCanon(prologue Prologue) *canon {
	return &canon{prefixes: prologue.PrefixMap(), names: make(map[string]int)}
}

// number returns the number of a variable name, or of a blank node keyed
// "_:label" (blank nodes are scoped like variables, so they share the
// namespace and labels do not matter), assigning the next one on first
// sight.
func (c *canon) number(key string) int {
	n, ok := c.names[key]
	if !ok {
		n = len(c.names)
		c.names[key] = n
	}
	return n
}

// reserve numbers the variables and blank nodes among ts ahead of their
// place in the text, where the canonical numbering meets them first.
func (w *writer) reserve(ts ...Term) {
	if w.canon == nil {
		return
	}
	for _, t := range ts {
		switch t.Kind {
		case TermVar:
			w.canon.number(t.Value)
		case TermBlank:
			w.canon.number("_:" + t.Value)
		}
	}
}

func (w *writer) query(q *Query) {
	if w.canon == nil {
		// The canonical form expands prefixed names, so it has no prologue.
		w.prologue(q.Prologue)
	}
	switch q.Type {
	case SelectQuery:
		w.selectCore(q)
	case AskQuery:
		w.WriteString("ASK")
		w.datasets(q)
		w.WriteByte(' ')
		w.pattern(q.Where)
	case ConstructQuery:
		w.WriteString("CONSTRUCT")
		if q.ConstructWhere {
			// The template is the WHERE clause's triples, numbered first.
			for _, t := range q.Template {
				w.reserve(t.S, t.P, t.O)
			}
			w.datasets(q)
			w.WriteString(" WHERE ")
			w.pattern(q.Where)
		} else {
			w.WriteString(" { ")
			for i, t := range q.Template {
				if i > 0 {
					w.WriteString(" . ")
				}
				w.triple(t)
			}
			w.WriteString(" }")
			w.datasets(q)
			w.WriteString(" WHERE ")
			w.pattern(q.Where)
		}
	case DescribeQuery:
		w.WriteString("DESCRIBE")
		if q.DescribeStar {
			w.WriteString(" *")
		}
		for _, t := range q.DescribeTerms {
			w.WriteByte(' ')
			w.term(t)
		}
		w.datasets(q)
		if q.Where != nil {
			w.WriteString(" WHERE ")
			w.pattern(q.Where)
		}
	}
	w.modifiers(&q.Mods)
	if q.TrailingValues != nil {
		w.WriteByte(' ')
		w.values(q.TrailingValues)
	}
}

func (w *writer) prologue(p Prologue) {
	if p.Base != "" {
		w.WriteString("BASE <")
		w.WriteString(p.Base)
		w.WriteString("> ")
	}
	for _, pd := range p.Prefixes {
		w.WriteString("PREFIX ")
		w.WriteString(pd.Name)
		w.WriteString(": <")
		w.WriteString(pd.IRI)
		w.WriteString("> ")
	}
}

func (w *writer) selectCore(q *Query) {
	w.WriteString("SELECT")
	if q.Distinct {
		w.WriteString(" DISTINCT")
	}
	if q.Reduced {
		w.WriteString(" REDUCED")
	}
	if q.SelectStar {
		w.WriteString(" *")
	}
	for _, it := range q.Select {
		w.WriteByte(' ')
		if it.Expr != nil {
			// (expr AS ?x) numbers ?x before the expression's variables.
			w.reserve(it.Var)
			w.WriteByte('(')
			w.expr(it.Expr)
			w.WriteString(" AS ")
			w.variable(it.Var.Value)
			w.WriteByte(')')
		} else {
			w.variable(it.Var.Value)
		}
	}
	w.datasets(q)
	w.WriteString(" WHERE ")
	w.pattern(q.Where)
}

func (w *writer) datasets(q *Query) {
	for _, d := range q.Datasets {
		w.WriteString(" FROM ")
		if d.Named {
			w.WriteString("NAMED ")
		}
		w.term(d.IRI)
	}
}

func (w *writer) modifiers(m *Modifiers) {
	if len(m.GroupBy) > 0 {
		w.WriteString(" GROUP BY")
		for _, gk := range m.GroupBy {
			w.WriteByte(' ')
			if gk.AsVar {
				w.WriteByte('(')
				w.expr(gk.Expr)
				w.WriteString(" AS ")
				w.variable(gk.Var.Value)
				w.WriteByte(')')
			} else if te, ok := gk.Expr.(*TermExpr); ok && te.Term.Kind == TermVar {
				w.variable(te.Term.Value)
			} else {
				w.WriteByte('(')
				w.expr(gk.Expr)
				w.WriteByte(')')
			}
		}
	}
	if len(m.Having) > 0 {
		w.WriteString(" HAVING")
		for _, h := range m.Having {
			w.WriteString(" (")
			w.expr(h)
			w.WriteByte(')')
		}
	}
	if len(m.OrderBy) > 0 {
		w.WriteString(" ORDER BY")
		for _, ok := range m.OrderBy {
			w.WriteByte(' ')
			if ok.Explicit {
				if ok.Desc {
					w.WriteString("DESC(")
				} else {
					w.WriteString("ASC(")
				}
				w.expr(ok.Expr)
				w.WriteByte(')')
			} else if te, isTerm := ok.Expr.(*TermExpr); isTerm && te.Term.Kind == TermVar {
				w.variable(te.Term.Value)
			} else {
				w.WriteByte('(')
				w.expr(ok.Expr)
				w.WriteByte(')')
			}
		}
	}
	if m.HasLimit {
		w.WriteString(" LIMIT ")
		w.WriteString(strconv.FormatInt(m.Limit, 10))
	}
	if m.HasOffset {
		w.WriteString(" OFFSET ")
		w.WriteString(strconv.FormatInt(m.Offset, 10))
	}
}

func (w *writer) pattern(p Pattern) {
	switch n := p.(type) {
	case nil:
		w.WriteString("{ }")
	case *Group:
		w.WriteString("{ ")
		for i, el := range n.Elems {
			if i > 0 {
				w.WriteString(" . ")
			}
			w.groupElement(el)
		}
		w.WriteString(" }")
	default:
		// A non-group at top level is wrapped for valid syntax.
		w.WriteString("{ ")
		w.groupElement(p)
		w.WriteString(" }")
	}
}

// PatternString serializes a single graph pattern the way it appears
// inside a group. Equal patterns serialize equally (the serializer is
// deterministic), so the string doubles as a structural comparison key.
func PatternString(p Pattern) string {
	if p == nil {
		return ""
	}
	var w writer
	w.groupElement(p)
	return w.String()
}

func (w *writer) groupElement(p Pattern) {
	switch n := p.(type) {
	case *TriplePattern:
		w.triple(n)
	case *PathPattern:
		w.term(n.S)
		w.WriteByte(' ')
		w.path(n.Path, 0)
		w.WriteByte(' ')
		w.term(n.O)
	case *Group:
		w.pattern(n)
	case *Union:
		w.unionOperand(n.Left)
		w.WriteString(" UNION ")
		w.unionOperand(n.Right)
	case *Optional:
		w.WriteString("OPTIONAL ")
		w.pattern(n.Inner)
	case *GraphGraph:
		w.WriteString("GRAPH ")
		w.term(n.Name)
		w.WriteByte(' ')
		w.pattern(n.Inner)
	case *MinusGraph:
		w.WriteString("MINUS ")
		w.pattern(n.Inner)
	case *ServiceGraph:
		w.WriteString("SERVICE ")
		if n.Silent {
			w.WriteString("SILENT ")
		}
		w.term(n.Name)
		w.WriteByte(' ')
		w.pattern(n.Inner)
	case *Filter:
		w.WriteString("FILTER (")
		w.expr(n.Constraint)
		w.WriteByte(')')
	case *Bind:
		w.WriteString("BIND (")
		w.expr(n.Expr)
		w.WriteString(" AS ")
		w.variable(n.Var.Value)
		w.WriteByte(')')
	case *InlineData:
		w.values(n)
	case *SubSelect:
		w.WriteString("{ ")
		w.query(n.Query)
		w.WriteString(" }")
	}
}

// unionOperand always braces union operands, as required by the
// grammar (UNION joins GroupGraphPatterns).
func (w *writer) unionOperand(p Pattern) {
	switch p.(type) {
	case *Group, *Union:
		w.groupElement(p)
	default:
		w.WriteString("{ ")
		w.groupElement(p)
		w.WriteString(" }")
	}
}

func (w *writer) values(vd *InlineData) {
	w.WriteString("VALUES ")
	if len(vd.Vars) == 1 {
		w.variable(vd.Vars[0].Value)
	} else {
		w.WriteByte('(')
		for i, v := range vd.Vars {
			if i > 0 {
				w.WriteByte(' ')
			}
			w.variable(v.Value)
		}
		w.WriteByte(')')
	}
	w.WriteString(" { ")
	for ri, row := range vd.Rows {
		if ri > 0 {
			w.WriteByte(' ')
		}
		if len(vd.Vars) == 1 {
			w.dataValue(row, vd.Undef[ri], 0)
		} else {
			w.WriteByte('(')
			for ci := range row {
				if ci > 0 {
					w.WriteByte(' ')
				}
				w.dataValue(row, vd.Undef[ri], ci)
			}
			w.WriteByte(')')
		}
	}
	w.WriteString(" }")
}

func (w *writer) dataValue(row []Term, undef []bool, i int) {
	if i < len(undef) && undef[i] {
		w.WriteString("UNDEF")
		return
	}
	w.term(row[i])
}

func (w *writer) triple(t *TriplePattern) {
	w.term(t.S)
	w.WriteByte(' ')
	if t.P.Kind == TermIRI {
		w.verb(t.P.Value, t.P.PrefixedForm)
	} else {
		w.term(t.P)
	}
	w.WriteByte(' ')
	w.term(t.O)
}

// variable writes ?name, renamed under a canon.
func (w *writer) variable(name string) {
	w.WriteByte('?')
	if w.canon == nil {
		w.WriteString(name)
		return
	}
	w.renamed(name)
}

// renamed writes the canonical name of a variable, or of a blank node
// keyed "_:label": v and its number.
func (w *writer) renamed(key string) {
	w.WriteByte('v')
	w.WriteString(strconv.Itoa(w.canon.number(key)))
}

func (w *writer) term(t Term) {
	switch t.Kind {
	case TermVar:
		w.variable(t.Value)
	case TermIRI:
		w.iri(w.expand(t.Value, t.PrefixedForm))
	case TermBlank:
		w.WriteString("_:")
		if w.canon == nil {
			w.WriteString(t.Value)
			return
		}
		w.renamed("_:" + t.Value)
	case TermLiteral:
		w.literal(t)
	}
}

// expand returns the IRI text to write and whether to write it as a
// prefixed name: as parsed, or under a canon expanded against the
// prologue and bracketed, so that one IRI has one spelling whatever its
// prefix and its syntactic position.
func (w *writer) expand(iri string, prefixed bool) (string, bool) {
	if w.canon == nil {
		return iri, prefixed
	}
	return w.canon.prefixes.Expand(iri, prefixed), false
}

// iri writes an IRI: a prefixed name bare, a full IRI in brackets.
func (w *writer) iri(iri string, prefixed bool) {
	if prefixed {
		w.WriteString(iri)
		return
	}
	w.WriteByte('<')
	w.WriteString(iri)
	w.WriteByte('>')
}

// verb writes an IRI in predicate position, where rdf:type is 'a'.
func (w *writer) verb(iri string, prefixed bool) {
	iri, prefixed = w.expand(iri, prefixed)
	if iri == RDFType {
		w.WriteByte('a')
		return
	}
	w.iri(iri, prefixed)
}

func (w *writer) literal(t Term) {
	switch t.Datatype {
	case "http://www.w3.org/2001/XMLSchema#integer",
		"http://www.w3.org/2001/XMLSchema#decimal",
		"http://www.w3.org/2001/XMLSchema#double",
		"http://www.w3.org/2001/XMLSchema#boolean":
		// Numeric and boolean literals can be written bare.
		w.WriteString(t.Value)
		return
	}
	w.WriteByte('"')
	for i := 0; i < len(t.Value); i++ {
		c := t.Value[i]
		switch c {
		case '"':
			w.WriteString(`\"`)
		case '\\':
			w.WriteString(`\\`)
		case '\n':
			w.WriteString(`\n`)
		case '\r':
			w.WriteString(`\r`)
		case '\t':
			w.WriteString(`\t`)
		default:
			w.WriteByte(c)
		}
	}
	w.WriteByte('"')
	if t.Lang != "" {
		w.WriteByte('@')
		w.WriteString(t.Lang)
	} else if t.Datatype != "" {
		w.WriteString("^^<")
		w.WriteString(t.Datatype)
		w.WriteByte('>')
	}
}

// ExprString renders an expression in SPARQL syntax.
func ExprString(e Expr) string {
	var w writer
	w.expr(e)
	return w.String()
}

func (w *writer) expr(e Expr) {
	switch n := e.(type) {
	case *BinaryExpr:
		w.exprOperand(n.L)
		w.WriteByte(' ')
		w.WriteString(n.Op)
		w.WriteByte(' ')
		w.exprOperand(n.R)
	case *UnaryExpr:
		w.WriteString(n.Op)
		w.exprOperand(n.X)
	case *FuncCall:
		if n.IRICall {
			// Written as parsed even under a canon: no function is
			// defined by IRI, so the call's answer does not depend on
			// what the name expands to.
			w.iri(n.Name, n.PrefixedForm)
		} else {
			w.WriteString(n.Name)
		}
		w.WriteByte('(')
		if n.Distinct {
			w.WriteString("DISTINCT ")
		}
		for i, a := range n.Args {
			if i > 0 {
				w.WriteString(", ")
			}
			w.expr(a)
		}
		w.WriteByte(')')
	case *AggregateExpr:
		w.WriteString(n.Name)
		w.WriteByte('(')
		if n.Distinct {
			w.WriteString("DISTINCT ")
		}
		if n.Star {
			w.WriteByte('*')
		} else {
			w.expr(n.Arg)
		}
		if n.HasSep {
			w.WriteString(" ; SEPARATOR = \"")
			w.WriteString(n.Separator)
			w.WriteByte('"')
		}
		w.WriteByte(')')
	case *ExistsExpr:
		if n.Not {
			w.WriteString("NOT ")
		}
		w.WriteString("EXISTS ")
		w.pattern(n.Pattern)
	case *TermExpr:
		w.term(n.Term)
	case *InExpr:
		w.exprOperand(n.X)
		if n.Not {
			w.WriteString(" NOT")
		}
		w.WriteString(" IN (")
		for i, a := range n.List {
			if i > 0 {
				w.WriteString(", ")
			}
			w.expr(a)
		}
		w.WriteByte(')')
	}
}

// exprOperand parenthesizes compound operands so the rendered text
// preserves the tree structure regardless of operator precedence.
func (w *writer) exprOperand(e Expr) {
	switch e.(type) {
	case *BinaryExpr, *InExpr:
		w.WriteByte('(')
		w.expr(e)
		w.WriteByte(')')
	default:
		w.expr(e)
	}
}
