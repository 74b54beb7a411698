package sparql

import (
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for the SPARQL 1.1 query language.
// The zero value is ready to use, and a Parser may be reused across
// queries via Parse (one at a time); the package-level Parse makes a
// fresh one.
//
// A tree a Parser returns is valid until its next Parse. The Parser
// takes the tree's nodes from slabs it owns (nodes), and Parse recycles
// them for the next tree: a reused Parser that has met its largest text
// allocates no nodes at all. A caller that keeps a tree past the next
// Parse parses it on a Parser it does not reuse, such as the
// package-level Parse, whose tree is its own for as long as it is
// referenced. TestHookPoison makes that contract checked: each Parse
// then poisons the tree before it.
//
// The parser numbers each distinct variable and blank node label of a
// text as it reads it (Term.num), so that ScopeOf numbers a scope by
// array lookups, not name comparisons.
//
// A reused Parser reads a repeated prologue once: it remembers the
// PREFIX declarations of the last prologue it parsed (prologueMemo), and
// a text that begins with the same bytes is compared, not lexed, up to
// the end of the last declaration they share. Queries parsed by one
// Parser may then share the backing array of Prologue.Prefixes, whose
// strings may slice an earlier query's text; the memo owns that array,
// which outlives the trees, and like the rest of an AST it must not be
// written to.
type Parser struct {
	lex      Lexer
	tok      Token // current token
	ahead    Token // one-token lookahead, valid when hasAhead
	hasAhead bool
	blankSeq int
	// prefixes collects the PREFIX declarations read past the reused
	// ones. selects, elems and exprs are stacks of the SELECT items,
	// group elements and call arguments being parsed (a list may open
	// inside another: a subquery's SELECT clause in an outer one's
	// expression, a group in a group). A node gets a copy of its part
	// at its exact size, from the slabs.
	prefixes []PrefixDecl
	selects  []SelectItem
	elems    []Pattern
	exprs    []Expr
	// names lists the variables and blank node labels of the text by
	// number, less one; past scanNames of them, index finds them.
	names []nameKey
	index map[nameKey]int32
	nodes nodes
	// memo is the last prologue parsed, and reused is the number of its
	// declarations the text being parsed begins with.
	memo   prologueMemo
	reused int
}

// scratch is the first storage of a Parser's stacks and names, made
// in one allocation once a text has a query form, so that a fresh
// Parser parses a small query with no more for them. It is kept off
// the Parser, which the package-level Parse then keeps on its stack.
type scratch struct {
	selects [4]SelectItem
	elems   [8]Pattern
	exprs   [4]Expr
	names   [8]nameKey
}

// nameKey is a variable's name or, with blank set, a blank node label.
type nameKey struct {
	name  string
	blank bool
}

// memoDecls is the most PREFIX declarations a prologueMemo records:
// more than endpoint UIs' boilerplate blocks hold, and few enough to
// keep their offsets in the Parser itself, so that a fresh Parser
// (the package-level Parse) pays no allocation for them.
const memoDecls = 16

// prologueMemo is the leading run of PREFIX declarations of the last
// prologue a Parser read, before any BASE and at most memoDecls of them.
// Declaration i of decls ends at byte offset ends[i] of src, just past
// its IRI's '>'. A text whose first ends[i] bytes equal src's holds
// declarations 0..i as they are: the lexer keeps nothing but its offset,
// and an IRIREF token ends at its '>' without reading on.
type prologueMemo struct {
	src   string
	decls []PrefixDecl // a query's Prologue.Prefixes, never written
	ends  [memoDecls]int
	n     int // declarations recorded
}

// Parse parses a single SPARQL query on a fresh Parser, so the tree is
// the caller's for as long as it keeps it.
func Parse(src string) (*Query, error) {
	p := &Parser{}
	return p.Parse(src)
}

// Parse parses src as one complete query, resetting parser state but
// for the prologue memo: the lexer starts past the memo's declarations
// that src begins with. The tree it returned before is recycled.
func (p *Parser) Parse(src string) (*Query, error) {
	p.lex = Lexer{src: src, pos: p.reuse(src)}
	p.hasAhead = false
	p.nodes.recycle(TestHookPoison.Load())
	clear(p.prefixes)
	clear(p.selects)
	p.prefixes, p.selects = p.prefixes[:0], p.selects[:0]
	p.elems, p.exprs, p.names = p.elems[:0], p.exprs[:0], p.names[:0]
	clear(p.index)
	p.blankSeq = 0
	if err := p.next(); err != nil {
		return nil, err
	}
	q, err := p.parseQueryUnit()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != EOF {
		return nil, p.errorf("unexpected %s %q after end of query", p.tok.Kind, p.tok.Text)
	}
	return q, nil
}

// reuse returns the byte offset just past the longest run of the memo's
// declarations that src begins with, byte for byte, and keeps their
// number in p.reused.
func (p *Parser) reuse(src string) int {
	m := &p.memo
	k, at := 0, 0
	for k < m.n {
		end := m.ends[k]
		if end > len(src) || src[at:end] != m.src[at:end] {
			break
		}
		k, at = k+1, end
	}
	p.reused = k
	return at
}

func (p *Parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: PositionAt(p.lex.src, p.tok.Pos), Msg: fmtSprintf(format, args...)}
}

func (p *Parser) next() error {
	if p.hasAhead {
		p.tok = p.ahead
		p.hasAhead = false
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) peek() (Token, error) {
	if !p.hasAhead {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.ahead = t
		p.hasAhead = true
	}
	return p.ahead, nil
}

func (p *Parser) expect(kind TokenKind) error {
	if p.tok.Kind != kind {
		return p.errorf("expected %s, found %s %q", kind, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// isKw reports whether the current token is the given keyword, an
// upper-case ASCII word, in any ASCII letter case. SPARQL keywords are
// ASCII: only a-z fold, so no other rune (the Kelvin sign, the long s)
// spells a keyword.
func (p *Parser) isKw(kw string) bool {
	return p.tok.Kind == Ident && spellsKw(p.tok.Text, kw)
}

// spellsKw reports whether t is the upper-case ASCII word kw in any
// ASCII letter case.
func spellsKw(t, kw string) bool {
	if len(t) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		c := t[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

// upperASCII is s with a-z upper-cased: how a function or aggregate
// name is matched and written. Like keywords (spellsKw), names fold
// only ASCII letters, so no other rune (the long s, the dotless i)
// becomes one. A name with no lower-case ASCII letter is returned as
// it is.
func upperASCII(s string) string {
	i := 0
	for i < len(s) && (s[i] < 'a' || 'z' < s[i]) {
		i++
	}
	if i == len(s) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	sb.WriteString(s[:i])
	for ; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// MayParse reports whether src, past leading white space and comments,
// begins with a keyword that a query's first token can be: BASE,
// PREFIX, SELECT, ASK, CONSTRUCT or DESCRIBE, in any ASCII letter case.
// Parse fails on every src for which it is false, so a caller that
// needs no syntax error can skip the parse, which costs several times
// this test even when it fails at the first token.
func MayParse(src string) bool {
	l := Lexer{src: src}
	l.skipSpaceAndComments()
	rest := src[l.pos:]
	for _, kw := range [...]string{"SELECT", "ASK", "CONSTRUCT", "DESCRIBE", "PREFIX", "BASE"} {
		if len(rest) >= len(kw) && spellsKw(rest[:len(kw)], kw) {
			return true
		}
	}
	return false
}

// acceptKw consumes the keyword if present.
func (p *Parser) acceptKw(kw string) (bool, error) {
	if p.isKw(kw) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) expectKw(kw string) error {
	ok, err := p.acceptKw(kw)
	if err != nil {
		return err
	}
	if !ok {
		return p.errorf("expected keyword %s, found %q", kw, p.tok.Text)
	}
	return nil
}

func (p *Parser) freshBlank() Term {
	p.blankSeq++
	return p.blank("gen" + strconv.Itoa(p.blankSeq))
}

// variable returns the variable the current token names, numbered.
func (p *Parser) variable() Term {
	name := p.tok.Text
	return Term{Kind: TermVar, Value: name, num: p.number(nameKey{name: name})}
}

// blank returns the blank node of a label, numbered.
func (p *Parser) blank(label string) Term {
	return Term{Kind: TermBlank, Value: label, num: p.number(nameKey{name: label, blank: true})}
}

// number returns the number of a variable or blank node label in the
// text being parsed, numbering it next if it is new.
func (p *Parser) number(k nameKey) int32 {
	if len(p.names) > scanNames {
		if n, ok := p.index[k]; ok {
			return n
		}
	} else {
		for i, n := range p.names {
			if n == k {
				return int32(i + 1)
			}
		}
	}
	p.names = append(p.names, k)
	n := int32(len(p.names))
	switch {
	case n == scanNames+1:
		if p.index == nil {
			p.index = make(map[nameKey]int32, 2*scanNames)
		}
		for i, k := range p.names {
			p.index[k] = int32(i + 1)
		}
	case n > scanNames+1:
		p.index[k] = n
	}
	return n
}

// alloc returns a node of s holding v.
func alloc[T any](s *slab[T], v T) *T {
	x := &s.take(1)[0]
	*x = v
	return x
}

// termExpr returns a term expression node of t.
func (p *Parser) termExpr(t Term) *TermExpr {
	return alloc(&p.nodes.terms, TermExpr{Term: t})
}

// ---------- Query unit ----------

func (p *Parser) parseQueryUnit() (*Query, error) {
	var pro Prologue
	if err := p.parsePrologue(&pro); err != nil {
		return nil, err
	}
	var form func(*Query) error
	switch {
	case p.isKw("SELECT"):
		form = p.parseSelectQuery
	case p.isKw("ASK"):
		form = p.parseAskQuery
	case p.isKw("CONSTRUCT"):
		form = p.parseConstructQuery
	case p.isKw("DESCRIBE"):
		form = p.parseDescribeQuery
	default:
		return nil, p.formError()
	}
	if p.names == nil {
		b := new(scratch)
		p.selects, p.elems, p.exprs, p.names = b.selects[:0], b.elems[:0], b.exprs[:0], b.names[:0]
	}
	q := alloc(&p.nodes.queries, Query{Prologue: pro, Mods: Modifiers{Limit: -1, Offset: -1}})
	if err := form(q); err != nil {
		return nil, err
	}
	// Trailing VALUES clause.
	if p.isKw("VALUES") {
		vd, err := p.parseInlineData()
		if err != nil {
			return nil, err
		}
		q.TrailingValues = vd
	}
	return q, nil
}

// formError is the error of a text whose prologue is followed by no
// query form: a noise line fails here, at its first token, so the
// message is built without fmt (as errorf's %q would spell it).
func (p *Parser) formError() error {
	var buf [96]byte
	msg := append(buf[:0], "expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found "...)
	msg = strconv.AppendQuote(msg, p.tok.Text)
	return &SyntaxError{Pos: PositionAt(p.lex.src, p.tok.Pos), Msg: string(msg)}
}

// parsePrologue parses the BASE and PREFIX lines that follow the
// p.reused declarations of the memo, and records the declarations read
// before any BASE for the memo (closePrologue).
func (p *Parser) parsePrologue(pro *Prologue) error {
	var ends [memoDecls]int // where the declarations recorded here end
	n := 0
	record := true // no BASE read yet
	for {
		switch {
		case p.isKw("BASE"):
			record = false
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.Kind != IRIRef {
				return p.errorf("expected IRI after BASE")
			}
			pro.Base = p.tok.Text
			if err := p.next(); err != nil {
				return err
			}
		case p.isKw("PREFIX"):
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.Kind != PName {
				return p.errorf("expected prefix name after PREFIX")
			}
			name := strings.TrimSuffix(p.tok.Text, ":")
			if i := strings.IndexByte(p.tok.Text, ':'); i >= 0 {
				name = p.tok.Text[:i]
			}
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.Kind != IRIRef {
				return p.errorf("expected IRI in PREFIX declaration")
			}
			if p.prefixes == nil {
				// Room for a boilerplate block in one allocation, where
				// growing from empty would take four for seven lines.
				p.prefixes = make([]PrefixDecl, 0, memoDecls/2)
			}
			p.prefixes = append(p.prefixes, PrefixDecl{Name: name, IRI: p.tok.Text})
			if record && p.reused+n < memoDecls {
				ends[n] = p.tok.Pos + len(p.tok.Text) + len("<>")
				n++
			}
			if err := p.next(); err != nil {
				return err
			}
		default:
			pro.Prefixes = p.closePrologue(ends[:n])
			return nil
		}
	}
}

// closePrologue returns the prologue's declarations: the memo's reused
// ones, then those read. With none read, that is the memo's own slice,
// capped at its length so that no append writes to it. Otherwise the
// prologue, whose recorded declarations end at ends, becomes the memo.
func (p *Parser) closePrologue(ends []int) []PrefixDecl {
	m, k := &p.memo, p.reused
	if len(p.prefixes) == 0 {
		if k == 0 {
			return nil
		}
		return m.decls[:k:k]
	}
	out := make([]PrefixDecl, k+len(p.prefixes))
	copy(out, m.decls[:k])
	copy(out[k:], p.prefixes)
	clear(p.prefixes)
	p.prefixes = p.prefixes[:0]
	m.src, m.decls = p.lex.src, out
	m.n = k + copy(m.ends[k:], ends)
	return out
}

func (p *Parser) parseSelectQuery(q *Query) error {
	q.Type = SelectQuery
	if err := p.parseSelectClause(q); err != nil {
		return err
	}
	if err := p.parseDatasetClauses(q); err != nil {
		return err
	}
	if err := p.parseWhereClause(q); err != nil {
		return err
	}
	return p.parseSolutionModifier(&q.Mods)
}

func (p *Parser) parseSelectClause(q *Query) error {
	if err := p.expectKw("SELECT"); err != nil {
		return err
	}
	if ok, err := p.acceptKw("DISTINCT"); err != nil {
		return err
	} else if ok {
		q.Distinct = true
	} else if ok, err := p.acceptKw("REDUCED"); err != nil {
		return err
	} else if ok {
		q.Reduced = true
	}
	if p.tok.Kind == Star {
		q.SelectStar = true
		return p.next()
	}
	mark := len(p.selects)
	for {
		switch p.tok.Kind {
		case Var:
			p.selects = append(p.selects, SelectItem{Var: p.variable()})
			if err := p.next(); err != nil {
				return err
			}
		case LParen:
			if err := p.next(); err != nil {
				return err
			}
			e, err := p.parseExpression()
			if err != nil {
				return err
			}
			if err := p.expectKw("AS"); err != nil {
				return err
			}
			if p.tok.Kind != Var {
				return p.errorf("expected variable after AS")
			}
			v := p.variable()
			if err := p.next(); err != nil {
				return err
			}
			if err := p.expect(RParen); err != nil {
				return err
			}
			p.selects = append(p.selects, SelectItem{Var: v, Expr: e})
		default:
			if len(p.selects) == mark {
				return p.errorf("expected variable or expression in SELECT clause, found %q", p.tok.Text)
			}
			q.Select = take(&p.selects, mark, &p.nodes.items)
			return nil
		}
	}
}

func (p *Parser) parseAskQuery(q *Query) error {
	q.Type = AskQuery
	if err := p.expectKw("ASK"); err != nil {
		return err
	}
	if err := p.parseDatasetClauses(q); err != nil {
		return err
	}
	if err := p.parseWhereClause(q); err != nil {
		return err
	}
	return p.parseSolutionModifier(&q.Mods)
}

func (p *Parser) parseConstructQuery(q *Query) error {
	q.Type = ConstructQuery
	if err := p.expectKw("CONSTRUCT"); err != nil {
		return err
	}
	if p.tok.Kind == LBrace {
		// Full form: CONSTRUCT { template } WHERE { pattern }.
		tmpl, err := p.parseConstructTemplate()
		if err != nil {
			return err
		}
		q.Template = tmpl
		if err := p.parseDatasetClauses(q); err != nil {
			return err
		}
		if err := p.parseWhereClause(q); err != nil {
			return err
		}
		return p.parseSolutionModifier(&q.Mods)
	}
	// Abbreviated form: CONSTRUCT WHERE { triples }.
	if err := p.parseDatasetClauses(q); err != nil {
		return err
	}
	q.ConstructWhere = true
	if err := p.expectKw("WHERE"); err != nil {
		return err
	}
	grp, err := p.parseGroupGraphPattern()
	if err != nil {
		return err
	}
	q.Where = grp
	for _, el := range grp.Elems {
		if t, ok := el.(*TriplePattern); ok {
			q.Template = append(q.Template, t)
		}
	}
	return p.parseSolutionModifier(&q.Mods)
}

func (p *Parser) parseConstructTemplate() ([]*TriplePattern, error) {
	grp, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	var out []*TriplePattern
	for _, el := range grp.Elems {
		switch t := el.(type) {
		case *TriplePattern:
			out = append(out, t)
		default:
			return nil, p.errorf("CONSTRUCT template may only contain triples")
		}
	}
	return out, nil
}

func (p *Parser) parseDescribeQuery(q *Query) error {
	q.Type = DescribeQuery
	if err := p.expectKw("DESCRIBE"); err != nil {
		return err
	}
	if p.tok.Kind == Star {
		q.DescribeStar = true
		if err := p.next(); err != nil {
			return err
		}
	} else {
		for {
			switch p.tok.Kind {
			case Var:
				q.DescribeTerms = append(q.DescribeTerms, p.variable())
			case IRIRef:
				q.DescribeTerms = append(q.DescribeTerms, IRI(p.tok.Text))
			case PName:
				q.DescribeTerms = append(q.DescribeTerms, Term{Kind: TermIRI, Value: p.tok.Text, PrefixedForm: true})
			case A:
				q.DescribeTerms = append(q.DescribeTerms, IRI(RDFType))
			default:
				if len(q.DescribeTerms) == 0 {
					return p.errorf("expected variable, IRI, or * after DESCRIBE")
				}
				goto doneTerms
			}
			if err := p.next(); err != nil {
				return err
			}
		}
	}
doneTerms:
	if err := p.parseDatasetClauses(q); err != nil {
		return err
	}
	// WHERE clause is optional for DESCRIBE.
	if p.isKw("WHERE") || p.tok.Kind == LBrace {
		if err := p.parseWhereClause(q); err != nil {
			return err
		}
	}
	return p.parseSolutionModifier(&q.Mods)
}

func (p *Parser) parseDatasetClauses(q *Query) error {
	for p.isKw("FROM") {
		if err := p.next(); err != nil {
			return err
		}
		named := false
		if ok, err := p.acceptKw("NAMED"); err != nil {
			return err
		} else if ok {
			named = true
		}
		t, err := p.parseIRITerm()
		if err != nil {
			return err
		}
		q.Datasets = append(q.Datasets, DatasetClause{Named: named, IRI: t})
	}
	return nil
}

func (p *Parser) parseIRITerm() (Term, error) {
	switch p.tok.Kind {
	case IRIRef:
		t := IRI(p.tok.Text)
		return t, p.next()
	case PName:
		t := Term{Kind: TermIRI, Value: p.tok.Text, PrefixedForm: true}
		return t, p.next()
	}
	return Term{}, p.errorf("expected IRI, found %q", p.tok.Text)
}

func (p *Parser) parseWhereClause(q *Query) error {
	if _, err := p.acceptKw("WHERE"); err != nil {
		return err
	}
	grp, err := p.parseGroupGraphPattern()
	if err != nil {
		return err
	}
	q.Where = grp
	return nil
}

// ---------- Group graph patterns ----------

func (p *Parser) parseGroupGraphPattern() (*Group, error) {
	if err := p.expect(LBrace); err != nil {
		return nil, err
	}
	grp := alloc(&p.nodes.groups, Group{})
	// Subquery form: '{' SELECT ... '}'.
	if p.isKw("SELECT") {
		sub := alloc(&p.nodes.queries, Query{Mods: Modifiers{Limit: -1, Offset: -1}})
		if err := p.parseSelectQuery(sub); err != nil {
			return nil, err
		}
		if p.isKw("VALUES") {
			vd, err := p.parseInlineData()
			if err != nil {
				return nil, err
			}
			sub.TrailingValues = vd
		}
		grp.Elems = p.nodes.patterns.take(1)
		grp.Elems[0] = &SubSelect{Query: sub}
		if err := p.expect(RBrace); err != nil {
			return nil, err
		}
		return grp, nil
	}
	mark := len(p.elems)
	for {
		if p.tok.Kind == RBrace {
			grp.Elems = take(&p.elems, mark, &p.nodes.patterns)
			return grp, p.next()
		}
		if p.tok.Kind == EOF {
			return nil, p.errorf("unexpected end of input in group graph pattern")
		}
		el, err := p.parseGroupElement()
		if err != nil {
			return nil, err
		}
		if el != nil {
			p.elems = append(p.elems, el)
		}
		// An optional dot separates elements.
		if p.tok.Kind == Dot {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
}

// parseGroupElement parses one element of a group graph pattern and
// returns it, except a triples block, which pushes the patterns it
// expands to onto the group's elements itself and returns nil.
func (p *Parser) parseGroupElement() (Pattern, error) {
	switch {
	case p.isKw("OPTIONAL"):
		if err := p.next(); err != nil {
			return nil, err
		}
		inner, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.optionals, Optional{Inner: inner}), nil
	case p.isKw("MINUS"):
		if err := p.next(); err != nil {
			return nil, err
		}
		inner, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &MinusGraph{Inner: inner}, nil
	case p.isKw("GRAPH"):
		if err := p.next(); err != nil {
			return nil, err
		}
		var name Term
		if p.tok.Kind == Var {
			name = p.variable()
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			t, err := p.parseIRITerm()
			if err != nil {
				return nil, err
			}
			name = t
		}
		inner, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &GraphGraph{Name: name, Inner: inner}, nil
	case p.isKw("SERVICE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		silent := false
		if ok, err := p.acceptKw("SILENT"); err != nil {
			return nil, err
		} else if ok {
			silent = true
		}
		var name Term
		if p.tok.Kind == Var {
			name = p.variable()
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			t, err := p.parseIRITerm()
			if err != nil {
				return nil, err
			}
			name = t
		}
		inner, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &ServiceGraph{Silent: silent, Name: name, Inner: inner}, nil
	case p.isKw("FILTER"):
		if err := p.next(); err != nil {
			return nil, err
		}
		c, err := p.parseConstraint()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.filters, Filter{Constraint: c}), nil
	case p.isKw("BIND"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expect(LParen); err != nil {
			return nil, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		if p.tok.Kind != Var {
			return nil, p.errorf("expected variable after AS in BIND")
		}
		v := p.variable()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &Bind{Expr: e, Var: v}, nil
	case p.isKw("VALUES"):
		return p.parseInlineData()
	case p.tok.Kind == LBrace:
		// GroupOrUnionGraphPattern.
		left, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		var node Pattern = left
		for p.isKw("UNION") {
			if err := p.next(); err != nil {
				return nil, err
			}
			right, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			node = alloc(&p.nodes.unions, Union{Left: node, Right: right})
		}
		// A braced subquery collapses to the SubSelect itself, so that
		// serialization (which always braces subqueries) round-trips
		// without accumulating nesting.
		if g, ok := node.(*Group); ok && len(g.Elems) == 1 {
			if ss, ok := g.Elems[0].(*SubSelect); ok {
				return ss, nil
			}
		}
		return node, nil
	default:
		// TriplesSameSubjectPath.
		return nil, p.parseTriplesSameSubject()
	}
}

// parseTriplesSameSubject parses one subject with its property list and
// pushes the patterns it expands to onto p.elems, in source order except
// that the first of them goes last: the order the AST has always had,
// which every canonical text and study report reflects.
func (p *Parser) parseTriplesSameSubject() error {
	mark := len(p.elems)
	subj, err := p.parseGraphNode()
	if err != nil {
		return err
	}
	// A bare blank-node property list may have an empty property list
	// after it: "[ :p :o ] ." is a valid triples block.
	if len(p.elems) == mark || p.verbFollows() {
		if err := p.parsePropertyList(subj); err != nil {
			return err
		}
	}
	if len(p.elems) == mark {
		return p.errorf("expected predicate after subject")
	}
	block := p.elems[mark:]
	first := block[0]
	copy(block, block[1:])
	block[len(block)-1] = first
	return nil
}

// verbFollows reports whether the current token can start a verb (predicate
// or path).
func (p *Parser) verbFollows() bool {
	switch p.tok.Kind {
	case Var, IRIRef, PName, A, Caret, Bang, LParen:
		return true
	}
	return false
}

// parsePropertyList parses verb objectList (';' (verb objectList)?)* and
// pushes the patterns it expands to onto p.elems: each triple or path
// pattern, then those of its object's blank-node property list or
// collection.
func (p *Parser) parsePropertyList(subj Term) error {
	for {
		verb, path, err := p.parseVerb()
		if err != nil {
			return err
		}
		// Object list.
		for {
			// The pattern's slot comes before the patterns its object
			// expands to, which parseGraphNode appends.
			at := len(p.elems)
			p.elems = append(p.elems, nil)
			obj, err := p.parseGraphNode()
			if err != nil {
				return err
			}
			if path != nil {
				p.elems[at] = &PathPattern{S: subj, Path: path, O: obj}
			} else {
				p.elems[at] = alloc(&p.nodes.triples, TriplePattern{S: subj, P: verb, O: obj})
			}
			if p.tok.Kind == Comma {
				if err := p.next(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if p.tok.Kind == Semicolon {
			if err := p.next(); err != nil {
				return err
			}
			// Trailing semicolons are permitted.
			for p.tok.Kind == Semicolon {
				if err := p.next(); err != nil {
					return err
				}
			}
			if !p.verbFollows() {
				return nil
			}
			continue
		}
		return nil
	}
}

// parseVerb parses a predicate: a variable or an IRI comes back as the
// term, any other path as the path expression. An IRI is a plain
// predicate unless a path operator follows it, which one token of
// lookahead tells without building the path.
func (p *Parser) parseVerb() (Term, PathExpr, error) {
	switch p.tok.Kind {
	case Var:
		v := p.variable()
		return v, nil, p.next()
	case IRIRef, PName, A:
		next, err := p.peek()
		if err != nil {
			return Term{}, nil, err
		}
		switch next.Kind {
		case Slash, Pipe, Star, Plus, Question:
		default:
			t := Term{Kind: TermIRI, Value: p.tok.Text, PrefixedForm: p.tok.Kind == PName}
			if p.tok.Kind == A {
				t.Value = RDFType
			}
			return t, nil, p.next()
		}
	}
	path, err := p.parsePath()
	if err != nil {
		return Term{}, nil, err
	}
	// A parenthesized IRI, "(<p>)", is a plain predicate too.
	if iri, ok := path.(*PathIRI); ok {
		return Term{Kind: TermIRI, Value: iri.IRI, PrefixedForm: iri.PrefixedForm}, nil, nil
	}
	return Term{}, path, nil
}

// parseGraphNode parses a term in subject or object position, including
// blank-node property lists and collections, whose expansion triples are
// pushed onto p.elems.
func (p *Parser) parseGraphNode() (Term, error) {
	switch p.tok.Kind {
	case Var:
		t := p.variable()
		return t, p.next()
	case IRIRef:
		t := IRI(p.tok.Text)
		return t, p.next()
	case PName:
		t := Term{Kind: TermIRI, Value: p.tok.Text, PrefixedForm: true}
		return t, p.next()
	case BlankNode:
		t := p.blank(p.tok.Text)
		return t, p.next()
	case ANON:
		return p.freshBlank(), p.next()
	case StringLit:
		return p.parseRDFLiteral()
	case NumberLit:
		t := Term{Kind: TermLiteral, Value: p.tok.Text, Datatype: numericDatatype(p.tok.Text)}
		return t, p.next()
	case Plus, Minus:
		sign := "-"
		if p.tok.Kind == Plus {
			sign = "+"
		}
		if err := p.next(); err != nil {
			return Term{}, err
		}
		if p.tok.Kind != NumberLit {
			return Term{}, p.errorf("expected number after sign")
		}
		t := Term{Kind: TermLiteral, Value: sign + p.tok.Text, Datatype: numericDatatype(p.tok.Text)}
		return t, p.next()
	case Ident:
		if p.isKw("TRUE") || p.isKw("FALSE") {
			t := Term{Kind: TermLiteral, Value: strings.ToLower(p.tok.Text), Datatype: "http://www.w3.org/2001/XMLSchema#boolean"}
			return t, p.next()
		}
		return Term{}, p.errorf("unexpected keyword %q in triple pattern", p.tok.Text)
	case LBracket:
		// Blank node property list: [ verb objectList ; ... ].
		if err := p.next(); err != nil {
			return Term{}, err
		}
		b := p.freshBlank()
		if err := p.parsePropertyList(b); err != nil {
			return Term{}, err
		}
		if err := p.expect(RBracket); err != nil {
			return Term{}, err
		}
		return b, nil
	case NIL:
		t := Term{Kind: TermIRI, Value: rdfNil}
		return t, p.next()
	case LParen:
		// Collection: ( node1 node2 ... ) expands to rdf:first/rest chains.
		return p.parseCollection()
	}
	return Term{}, p.errorf("expected term, found %s %q", p.tok.Kind, p.tok.Text)
}

const (
	rdfFirst = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
	rdfRest  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
	rdfNil   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"
)

func (p *Parser) parseCollection() (Term, error) {
	if err := p.expect(LParen); err != nil {
		return Term{}, err
	}
	head := p.freshBlank()
	cur := head
	first := true
	for p.tok.Kind != RParen {
		if p.tok.Kind == EOF {
			return Term{}, p.errorf("unterminated collection")
		}
		if !first {
			next := p.freshBlank()
			p.elems = append(p.elems, alloc(&p.nodes.triples, TriplePattern{S: cur, P: IRI(rdfRest), O: next}))
			cur = next
		}
		first = false
		node, err := p.parseGraphNode()
		if err != nil {
			return Term{}, err
		}
		p.elems = append(p.elems, alloc(&p.nodes.triples, TriplePattern{S: cur, P: IRI(rdfFirst), O: node}))
	}
	p.elems = append(p.elems, alloc(&p.nodes.triples, TriplePattern{S: cur, P: IRI(rdfRest), O: IRI(rdfNil)}))
	return head, p.next()
}

func (p *Parser) parseRDFLiteral() (Term, error) {
	t := Term{Kind: TermLiteral, Value: p.tok.Text}
	if err := p.next(); err != nil {
		return Term{}, err
	}
	switch p.tok.Kind {
	case LangTag:
		t.Lang = p.tok.Text
		return t, p.next()
	case CaretCaret:
		if err := p.next(); err != nil {
			return Term{}, err
		}
		dt, err := p.parseIRITerm()
		if err != nil {
			return Term{}, err
		}
		t.Datatype = dt.Value
		return t, nil
	}
	return t, nil
}

func numericDatatype(text string) string {
	if strings.ContainsAny(text, "eE") {
		return "http://www.w3.org/2001/XMLSchema#double"
	}
	if strings.Contains(text, ".") {
		return "http://www.w3.org/2001/XMLSchema#decimal"
	}
	return "http://www.w3.org/2001/XMLSchema#integer"
}

// ---------- Property paths ----------

// parsePath parses PathAlternative.
func (p *Parser) parsePath() (PathExpr, error) {
	first, err := p.parsePathSequence()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != Pipe {
		return first, nil
	}
	parts := []PathExpr{first}
	for p.tok.Kind == Pipe {
		if err := p.next(); err != nil {
			return nil, err
		}
		part, err := p.parsePathSequence()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return &PathAlt{Parts: parts}, nil
}

func (p *Parser) parsePathSequence() (PathExpr, error) {
	first, err := p.parsePathEltOrInverse()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != Slash {
		return first, nil
	}
	parts := []PathExpr{first}
	for p.tok.Kind == Slash {
		if err := p.next(); err != nil {
			return nil, err
		}
		part, err := p.parsePathEltOrInverse()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return &PathSeq{Parts: parts}, nil
}

func (p *Parser) parsePathEltOrInverse() (PathExpr, error) {
	if p.tok.Kind == Caret {
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parsePathElt()
		if err != nil {
			return nil, err
		}
		return &PathInverse{X: x}, nil
	}
	return p.parsePathElt()
}

func (p *Parser) parsePathElt() (PathExpr, error) {
	prim, err := p.parsePathPrimary()
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case Star:
		return &PathMod{X: prim, Mod: '*'}, p.next()
	case Plus:
		return &PathMod{X: prim, Mod: '+'}, p.next()
	case Question:
		return &PathMod{X: prim, Mod: '?'}, p.next()
	}
	return prim, nil
}

func (p *Parser) parsePathPrimary() (PathExpr, error) {
	switch p.tok.Kind {
	case IRIRef, PName:
		x := &PathIRI{IRI: p.tok.Text, PrefixedForm: p.tok.Kind == PName}
		return x, p.next()
	case A:
		x := &PathIRI{IRI: RDFType}
		return x, p.next()
	case Bang:
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.parsePathNegatedSet()
	case LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		inner, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if err := p.expect(RParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.errorf("expected path primary, found %s %q", p.tok.Kind, p.tok.Text)
}

func (p *Parser) parsePathNegatedSet() (PathExpr, error) {
	one := func() (PathExpr, error) {
		if p.tok.Kind == Caret {
			if err := p.next(); err != nil {
				return nil, err
			}
			switch p.tok.Kind {
			case IRIRef, PName:
				x := &PathInverse{X: &PathIRI{IRI: p.tok.Text, PrefixedForm: p.tok.Kind == PName}}
				return x, p.next()
			case A:
				x := &PathInverse{X: &PathIRI{IRI: RDFType}}
				return x, p.next()
			}
			return nil, p.errorf("expected IRI after ^ in negated property set")
		}
		switch p.tok.Kind {
		case IRIRef, PName:
			x := &PathIRI{IRI: p.tok.Text, PrefixedForm: p.tok.Kind == PName}
			return x, p.next()
		case A:
			x := &PathIRI{IRI: RDFType}
			return x, p.next()
		}
		return nil, p.errorf("expected IRI in negated property set")
	}
	if p.tok.Kind == LParen {
		if err := p.next(); err != nil {
			return nil, err
		}
		var set []PathExpr
		if p.tok.Kind != RParen {
			for {
				x, err := one()
				if err != nil {
					return nil, err
				}
				set = append(set, x)
				if p.tok.Kind != Pipe {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &PathNeg{Set: set}, nil
	}
	x, err := one()
	if err != nil {
		return nil, err
	}
	return &PathNeg{Set: []PathExpr{x}}, nil
}

// ---------- VALUES ----------

func (p *Parser) parseInlineData() (*InlineData, error) {
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	vd := &InlineData{}
	oneVar := false
	switch p.tok.Kind {
	case Var:
		vd.Vars = []Term{p.variable()}
		oneVar = true
		if err := p.next(); err != nil {
			return nil, err
		}
	case LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		for p.tok.Kind == Var {
			vd.Vars = append(vd.Vars, p.variable())
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if err := p.expect(RParen); err != nil {
			return nil, err
		}
	case NIL:
		if err := p.next(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected variable list after VALUES")
	}
	if err := p.expect(LBrace); err != nil {
		return nil, err
	}
	for p.tok.Kind != RBrace {
		if p.tok.Kind == EOF {
			return nil, p.errorf("unterminated VALUES block")
		}
		var row []Term
		var undef []bool
		if oneVar {
			t, u, err := p.parseDataValue()
			if err != nil {
				return nil, err
			}
			row, undef = []Term{t}, []bool{u}
		} else {
			if p.tok.Kind == NIL {
				if err := p.next(); err != nil {
					return nil, err
				}
			} else {
				if err := p.expect(LParen); err != nil {
					return nil, err
				}
				for p.tok.Kind != RParen {
					t, u, err := p.parseDataValue()
					if err != nil {
						return nil, err
					}
					row = append(row, t)
					undef = append(undef, u)
				}
				if err := p.expect(RParen); err != nil {
					return nil, err
				}
			}
		}
		vd.Rows = append(vd.Rows, row)
		vd.Undef = append(vd.Undef, undef)
	}
	return vd, p.next()
}

func (p *Parser) parseDataValue() (Term, bool, error) {
	if p.isKw("UNDEF") {
		return Term{}, true, p.next()
	}
	switch p.tok.Kind {
	case IRIRef:
		t := IRI(p.tok.Text)
		return t, false, p.next()
	case PName:
		t := Term{Kind: TermIRI, Value: p.tok.Text, PrefixedForm: true}
		return t, false, p.next()
	case StringLit:
		t, err := p.parseRDFLiteral()
		return t, false, err
	case NumberLit:
		t := Term{Kind: TermLiteral, Value: p.tok.Text, Datatype: numericDatatype(p.tok.Text)}
		return t, false, p.next()
	case Plus, Minus:
		sign := "-"
		if p.tok.Kind == Plus {
			sign = "+"
		}
		if err := p.next(); err != nil {
			return Term{}, false, err
		}
		if p.tok.Kind != NumberLit {
			return Term{}, false, p.errorf("expected number after sign in VALUES")
		}
		t := Term{Kind: TermLiteral, Value: sign + p.tok.Text, Datatype: numericDatatype(p.tok.Text)}
		return t, false, p.next()
	case Ident:
		if p.isKw("TRUE") || p.isKw("FALSE") {
			t := Term{Kind: TermLiteral, Value: strings.ToLower(p.tok.Text), Datatype: "http://www.w3.org/2001/XMLSchema#boolean"}
			return t, false, p.next()
		}
	}
	return Term{}, false, p.errorf("expected data value in VALUES, found %q", p.tok.Text)
}

// ---------- Solution modifiers ----------

func (p *Parser) parseSolutionModifier(m *Modifiers) error {
	// GROUP BY.
	if p.isKw("GROUP") {
		if err := p.next(); err != nil {
			return err
		}
		if err := p.expectKw("BY"); err != nil {
			return err
		}
		for {
			gk, ok, err := p.parseGroupKey()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			m.GroupBy = append(m.GroupBy, gk)
		}
		if len(m.GroupBy) == 0 {
			return p.errorf("expected grouping key after GROUP BY")
		}
	}
	// HAVING.
	if p.isKw("HAVING") {
		if err := p.next(); err != nil {
			return err
		}
		for {
			c, err := p.parseConstraint()
			if err != nil {
				return err
			}
			m.Having = append(m.Having, c)
			if p.tok.Kind != LParen && !p.builtinFollows() {
				break
			}
		}
	}
	// ORDER BY.
	if p.isKw("ORDER") {
		if err := p.next(); err != nil {
			return err
		}
		if err := p.expectKw("BY"); err != nil {
			return err
		}
		for {
			ok, err := p.parseOrderKey(m)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if len(m.OrderBy) == 0 {
			return p.errorf("expected ordering key after ORDER BY")
		}
	}
	// LIMIT / OFFSET in either order.
	for {
		switch {
		case p.isKw("LIMIT") && !m.HasLimit:
			if err := p.next(); err != nil {
				return err
			}
			v, err := p.parseNonNegInt()
			if err != nil {
				return err
			}
			m.Limit, m.HasLimit = v, true
		case p.isKw("OFFSET") && !m.HasOffset:
			if err := p.next(); err != nil {
				return err
			}
			v, err := p.parseNonNegInt()
			if err != nil {
				return err
			}
			m.Offset, m.HasOffset = v, true
		default:
			return nil
		}
	}
}

func (p *Parser) parseNonNegInt() (int64, error) {
	if p.tok.Kind != NumberLit {
		return 0, p.errorf("expected integer, found %q", p.tok.Text)
	}
	v, err := strconv.ParseInt(p.tok.Text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q", p.tok.Text)
	}
	return v, p.next()
}

func (p *Parser) parseGroupKey() (GroupKey, bool, error) {
	switch {
	case p.tok.Kind == Var:
		gk := GroupKey{Expr: p.termExpr(p.variable())}
		return gk, true, p.next()
	case p.tok.Kind == LParen:
		if err := p.next(); err != nil {
			return GroupKey{}, false, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return GroupKey{}, false, err
		}
		gk := GroupKey{Expr: e}
		if ok, err := p.acceptKw("AS"); err != nil {
			return GroupKey{}, false, err
		} else if ok {
			if p.tok.Kind != Var {
				return GroupKey{}, false, p.errorf("expected variable after AS")
			}
			gk.Var = p.variable()
			gk.AsVar = true
			if err := p.next(); err != nil {
				return GroupKey{}, false, err
			}
		}
		if err := p.expect(RParen); err != nil {
			return GroupKey{}, false, err
		}
		return gk, true, nil
	case p.builtinFollows():
		e, err := p.parseBuiltInOrFunction()
		if err != nil {
			return GroupKey{}, false, err
		}
		return GroupKey{Expr: e}, true, nil
	case p.tok.Kind == IRIRef || p.tok.Kind == PName:
		e, err := p.parseIRIOrFunction()
		if err != nil {
			return GroupKey{}, false, err
		}
		return GroupKey{Expr: e}, true, nil
	}
	return GroupKey{}, false, nil
}

func (p *Parser) parseOrderKey(m *Modifiers) (bool, error) {
	switch {
	case p.isKw("ASC"), p.isKw("DESC"):
		desc := p.isKw("DESC")
		if err := p.next(); err != nil {
			return false, err
		}
		if p.tok.Kind != LParen {
			return false, p.errorf("expected ( after ASC/DESC")
		}
		if err := p.next(); err != nil {
			return false, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return false, err
		}
		if err := p.expect(RParen); err != nil {
			return false, err
		}
		m.OrderBy = append(m.OrderBy, OrderKey{Desc: desc, Explicit: true, Expr: e})
		return true, nil
	case p.tok.Kind == Var:
		m.OrderBy = append(m.OrderBy, OrderKey{Expr: p.termExpr(p.variable())})
		return true, p.next()
	case p.tok.Kind == LParen:
		if err := p.next(); err != nil {
			return false, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return false, err
		}
		if err := p.expect(RParen); err != nil {
			return false, err
		}
		m.OrderBy = append(m.OrderBy, OrderKey{Expr: e})
		return true, nil
	case p.builtinFollows():
		e, err := p.parseBuiltInOrFunction()
		if err != nil {
			return false, err
		}
		m.OrderBy = append(m.OrderBy, OrderKey{Expr: e})
		return true, nil
	}
	return false, nil
}

// ---------- Expressions ----------

// parseConstraint parses a FILTER or HAVING constraint: a bracketted
// expression, builtin call, or IRI function call.
func (p *Parser) parseConstraint() (Expr, error) {
	switch {
	case p.tok.Kind == LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Kind == IRIRef || p.tok.Kind == PName:
		return p.parseIRIOrFunction()
	case p.builtinFollows():
		return p.parseBuiltInOrFunction()
	}
	return nil, p.errorf("expected filter constraint, found %q", p.tok.Text)
}

func (p *Parser) parseExpression() (Expr, error) {
	return p.parseOrExpr()
}

func (p *Parser) parseOrExpr() (Expr, error) {
	l, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == OrOr {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		l = alloc(&p.nodes.binaries, BinaryExpr{Op: "||", L: l, R: r})
	}
	return l, nil
}

func (p *Parser) parseAndExpr() (Expr, error) {
	l, err := p.parseRelExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == AndAnd {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseRelExpr()
		if err != nil {
			return nil, err
		}
		l = alloc(&p.nodes.binaries, BinaryExpr{Op: "&&", L: l, R: r})
	}
	return l, nil
}

func (p *Parser) parseRelExpr() (Expr, error) {
	l, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.tok.Kind {
	case Eq:
		op = "="
	case Neq:
		op = "!="
	case Lt:
		op = "<"
	case Gt:
		op = ">"
	case Le:
		op = "<="
	case Ge:
		op = ">="
	default:
		if p.isKw("IN") {
			if err := p.next(); err != nil {
				return nil, err
			}
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			return alloc(&p.nodes.ins, InExpr{X: l, List: list}), nil
		}
		if p.isKw("NOT") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectKw("IN"); err != nil {
				return nil, err
			}
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			return alloc(&p.nodes.ins, InExpr{X: l, Not: true, List: list}), nil
		}
		return l, nil
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	r, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	return alloc(&p.nodes.binaries, BinaryExpr{Op: op, L: l, R: r}), nil
}

func (p *Parser) parseExprList() ([]Expr, error) {
	if p.tok.Kind == NIL {
		return nil, p.next()
	}
	if err := p.expect(LParen); err != nil {
		return nil, err
	}
	mark := len(p.exprs)
	for {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, e)
		if p.tok.Kind == Comma {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return take(&p.exprs, mark, &p.nodes.exprs), p.expect(RParen)
}

func (p *Parser) parseAddExpr() (Expr, error) {
	l, err := p.parseMulExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == Plus || p.tok.Kind == Minus {
		op := "+"
		if p.tok.Kind == Minus {
			op = "-"
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseMulExpr()
		if err != nil {
			return nil, err
		}
		l = alloc(&p.nodes.binaries, BinaryExpr{Op: op, L: l, R: r})
	}
	return l, nil
}

func (p *Parser) parseMulExpr() (Expr, error) {
	l, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == Star || p.tok.Kind == Slash {
		op := "*"
		if p.tok.Kind == Slash {
			op = "/"
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		l = alloc(&p.nodes.binaries, BinaryExpr{Op: op, L: l, R: r})
	}
	return l, nil
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	switch p.tok.Kind {
	case Bang:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.unaries, UnaryExpr{Op: "!", X: x}), nil
	case Minus:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.unaries, UnaryExpr{Op: "-", X: x}), nil
	case Plus:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.unaries, UnaryExpr{Op: "+", X: x}), nil
	}
	return p.parsePrimaryExpr()
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	switch p.tok.Kind {
	case LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		return e, p.expect(RParen)
	case Var:
		e := p.termExpr(p.variable())
		return e, p.next()
	case IRIRef, PName:
		return p.parseIRIOrFunction()
	case StringLit:
		t, err := p.parseRDFLiteral()
		if err != nil {
			return nil, err
		}
		return p.termExpr(t), nil
	case NumberLit:
		e := p.termExpr(Term{Kind: TermLiteral, Value: p.tok.Text, Datatype: numericDatatype(p.tok.Text)})
		return e, p.next()
	case Ident:
		if p.isKw("TRUE") || p.isKw("FALSE") {
			e := p.termExpr(Term{Kind: TermLiteral, Value: strings.ToLower(p.tok.Text), Datatype: "http://www.w3.org/2001/XMLSchema#boolean"})
			return e, p.next()
		}
		return p.parseBuiltInOrFunction()
	}
	return nil, p.errorf("expected expression, found %s %q", p.tok.Kind, p.tok.Text)
}

// parseIRIOrFunction parses an IRI used as an expression atom or as a
// custom function call iri(args).
func (p *Parser) parseIRIOrFunction() (Expr, error) {
	t, err := p.parseIRITerm()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == LParen || p.tok.Kind == NIL {
		args, distinct, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.calls, FuncCall{Name: t.Value, IRICall: true, PrefixedForm: t.PrefixedForm, Args: args, Distinct: distinct}), nil
	}
	return p.termExpr(t), nil
}

var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true,
	"AVG": true, "SAMPLE": true, "GROUP_CONCAT": true,
}

// reservedKeywords are clause-introducing keywords that must never be
// mistaken for builtin function calls, even when followed by '('.
var reservedKeywords = map[string]bool{
	"SELECT": true, "ASK": true, "CONSTRUCT": true, "DESCRIBE": true,
	"WHERE": true, "FROM": true, "PREFIX": true, "BASE": true,
	"GROUP": true, "HAVING": true, "ORDER": true, "BY": true,
	"LIMIT": true, "OFFSET": true, "VALUES": true, "OPTIONAL": true,
	"UNION": true, "MINUS": true, "GRAPH": true, "SERVICE": true,
	"SILENT": true, "FILTER": true, "BIND": true, "AS": true,
	"ASC": true, "DESC": true, "DISTINCT": true, "REDUCED": true,
	"UNDEF": true, "NAMED": true,
}

// zeroArgBuiltins may be written without parentheses in the wild; the
// SPARQL grammar requires NIL ("()") but logs contain both.
var zeroArgBuiltins = map[string]bool{
	"NOW": true, "RAND": true, "UUID": true, "STRUUID": true, "BNODE": true,
}

// builtinFollows reports whether the current Ident token could begin a
// builtin call, EXISTS pattern, or aggregate.
func (p *Parser) builtinFollows() bool {
	if p.tok.Kind != Ident {
		return false
	}
	up := upperASCII(p.tok.Text)
	switch up {
	case "EXISTS", "NOT":
		return true
	}
	if reservedKeywords[up] {
		return false
	}
	if aggregateNames[up] || zeroArgBuiltins[up] {
		return true
	}
	// Any other identifier followed by '(' is treated as a builtin call.
	t, err := p.peek()
	if err != nil {
		return false
	}
	return t.Kind == LParen || t.Kind == NIL
}

func (p *Parser) parseBuiltInOrFunction() (Expr, error) {
	name := upperASCII(p.tok.Text)
	switch name {
	case "EXISTS":
		if err := p.next(); err != nil {
			return nil, err
		}
		pat, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.exists, ExistsExpr{Pattern: pat}), nil
	case "NOT":
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		pat, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return alloc(&p.nodes.exists, ExistsExpr{Not: true, Pattern: pat}), nil
	}
	if aggregateNames[name] {
		return p.parseAggregate(name)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	if p.tok.Kind != LParen && p.tok.Kind != NIL {
		if zeroArgBuiltins[name] {
			return alloc(&p.nodes.calls, FuncCall{Name: name}), nil
		}
		return nil, p.errorf("expected ( after %s", name)
	}
	args, distinct, err := p.parseArgList()
	if err != nil {
		return nil, err
	}
	return alloc(&p.nodes.calls, FuncCall{Name: name, Args: args, Distinct: distinct}), nil
}

func (p *Parser) parseArgList() ([]Expr, bool, error) {
	if p.tok.Kind == NIL {
		return nil, false, p.next()
	}
	if err := p.expect(LParen); err != nil {
		return nil, false, err
	}
	distinct := false
	if ok, err := p.acceptKw("DISTINCT"); err != nil {
		return nil, false, err
	} else if ok {
		distinct = true
	}
	mark := len(p.exprs)
	if p.tok.Kind != RParen {
		for {
			e, err := p.parseExpression()
			if err != nil {
				return nil, false, err
			}
			p.exprs = append(p.exprs, e)
			if p.tok.Kind == Comma {
				if err := p.next(); err != nil {
					return nil, false, err
				}
				continue
			}
			break
		}
	}
	return take(&p.exprs, mark, &p.nodes.exprs), distinct, p.expect(RParen)
}

func (p *Parser) parseAggregate(name string) (Expr, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.expect(LParen); err != nil {
		return nil, err
	}
	agg := alloc(&p.nodes.aggs, AggregateExpr{Name: name})
	if ok, err := p.acceptKw("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		agg.Distinct = true
	}
	if p.tok.Kind == Star {
		agg.Star = true
		if err := p.next(); err != nil {
			return nil, err
		}
	} else {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		agg.Arg = e
	}
	// GROUP_CONCAT(expr ; SEPARATOR = "sep").
	if p.tok.Kind == Semicolon {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("SEPARATOR"); err != nil {
			return nil, err
		}
		if err := p.expect(Eq); err != nil {
			return nil, err
		}
		if p.tok.Kind != StringLit {
			return nil, p.errorf("expected string separator")
		}
		agg.Separator = p.tok.Text
		agg.HasSep = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return agg, p.expect(RParen)
}
