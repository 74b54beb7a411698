package sparql

import (
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for the SPARQL 1.1 query language.
// A Parser may be reused across queries via Parse; zero value is not usable,
// construct with NewParser or use the package-level Parse.
type Parser struct {
	lex      *Lexer
	tok      Token // current token
	ahead    Token // one-token lookahead, valid when hasAhead
	hasAhead bool
	blankSeq int
}

// Parse parses a single SPARQL query.
func Parse(src string) (*Query, error) {
	p := &Parser{}
	return p.Parse(src)
}

// Parse parses src as one complete query, resetting parser state.
func (p *Parser) Parse(src string) (*Query, error) {
	p.lex = NewLexer(src)
	p.hasAhead = false
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

func (p *Parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.tok.Pos, Msg: fmtSprintf(format, args...)}
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

// isKw reports whether the current token is the given keyword
// (case-insensitive).
func (p *Parser) isKw(kw string) bool {
	return p.tok.Kind == Ident && strings.EqualFold(p.tok.Text, kw)
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
	return Term{Kind: TermBlank, Value: "gen" + strconv.Itoa(p.blankSeq)}
}

// ---------- Query unit ----------

func (p *Parser) parseQueryUnit() (*Query, error) {
	q := &Query{Mods: Modifiers{Limit: -1, Offset: -1}}
	if err := p.parsePrologue(q); err != nil {
		return nil, err
	}
	switch {
	case p.isKw("SELECT"):
		if err := p.parseSelectQuery(q); err != nil {
			return nil, err
		}
	case p.isKw("ASK"):
		if err := p.parseAskQuery(q); err != nil {
			return nil, err
		}
	case p.isKw("CONSTRUCT"):
		if err := p.parseConstructQuery(q); err != nil {
			return nil, err
		}
	case p.isKw("DESCRIBE"):
		if err := p.parseDescribeQuery(q); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected SELECT, ASK, CONSTRUCT, or DESCRIBE, found %q", p.tok.Text)
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

func (p *Parser) parsePrologue(q *Query) error {
	for {
		switch {
		case p.isKw("BASE"):
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.Kind != IRIRef {
				return p.errorf("expected IRI after BASE")
			}
			q.Prologue.Base = p.tok.Text
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
			q.Prologue.Prefixes = append(q.Prologue.Prefixes, PrefixDecl{Name: name, IRI: p.tok.Text})
			if err := p.next(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
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
	for {
		switch p.tok.Kind {
		case Var:
			q.Select = append(q.Select, SelectItem{Var: Variable(p.tok.Text)})
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
			v := Variable(p.tok.Text)
			if err := p.next(); err != nil {
				return err
			}
			if err := p.expect(RParen); err != nil {
				return err
			}
			q.Select = append(q.Select, SelectItem{Var: v, Expr: e})
		default:
			if len(q.Select) == 0 {
				return p.errorf("expected variable or expression in SELECT clause, found %q", p.tok.Text)
			}
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
				q.DescribeTerms = append(q.DescribeTerms, Variable(p.tok.Text))
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
	grp := &Group{}
	// Subquery form: '{' SELECT ... '}'.
	if p.isKw("SELECT") {
		sub := &Query{Mods: Modifiers{Limit: -1, Offset: -1}}
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
		grp.Elems = append(grp.Elems, &SubSelect{Query: sub})
		if err := p.expect(RBrace); err != nil {
			return nil, err
		}
		return grp, nil
	}
	for {
		if p.tok.Kind == RBrace {
			return grp, p.next()
		}
		if p.tok.Kind == EOF {
			return nil, p.errorf("unexpected end of input in group graph pattern")
		}
		el, err := p.parseGroupElement(grp)
		if err != nil {
			return nil, err
		}
		if el != nil {
			grp.Elems = append(grp.Elems, el)
		}
		// An optional dot separates elements.
		if p.tok.Kind == Dot {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
}

// parseGroupElement parses one element of a group graph pattern. Triple
// blocks may expand blank-node property lists into multiple triples, which
// are appended directly to grp; in that case the primary pattern is still
// returned and auxiliary triples were already appended.
func (p *Parser) parseGroupElement(grp *Group) (Pattern, error) {
	switch {
	case p.isKw("OPTIONAL"):
		if err := p.next(); err != nil {
			return nil, err
		}
		inner, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &Optional{Inner: inner}, nil
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
			name = Variable(p.tok.Text)
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
			name = Variable(p.tok.Text)
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
		return &Filter{Constraint: c}, nil
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
		v := Variable(p.tok.Text)
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
			node = &Union{Left: node, Right: right}
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
		return p.parseTriplesSameSubject(grp)
	}
}

// parseTriplesSameSubject parses one subject with its property list,
// appending all but the first resulting pattern to grp and returning the
// first.
func (p *Parser) parseTriplesSameSubject(grp *Group) (Pattern, error) {
	var pending []Pattern
	subj, err := p.parseGraphNode(&pending)
	if err != nil {
		return nil, err
	}
	// A bare blank-node property list may have an empty property list
	// after it: "[ :p :o ] ." is a valid triples block.
	if len(pending) > 0 && !p.verbFollows() {
		first := pending[0]
		grp.Elems = append(grp.Elems, pending[1:]...)
		return first, nil
	}
	pats, err := p.parsePropertyList(subj)
	if err != nil {
		return nil, err
	}
	all := append(pending, pats...)
	if len(all) == 0 {
		return nil, p.errorf("expected predicate after subject")
	}
	grp.Elems = append(grp.Elems, all[1:]...)
	return all[0], nil
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

// parsePropertyList parses verb objectList (';' (verb objectList)?)*.
func (p *Parser) parsePropertyList(subj Term) ([]Pattern, error) {
	var out []Pattern
	for {
		isVar := p.tok.Kind == Var
		var predVar Term
		var path PathExpr
		if isVar {
			predVar = Variable(p.tok.Text)
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			px, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			path = px
		}
		// Object list.
		for {
			var pending []Pattern
			obj, err := p.parseGraphNode(&pending)
			if err != nil {
				return nil, err
			}
			if isVar {
				out = append(out, &TriplePattern{S: subj, P: predVar, O: obj})
			} else if iri, ok := path.(*PathIRI); ok {
				out = append(out, &TriplePattern{S: subj, P: Term{Kind: TermIRI, Value: iri.IRI, PrefixedForm: iri.PrefixedForm}, O: obj})
			} else {
				out = append(out, &PathPattern{S: subj, Path: path, O: obj})
			}
			out = append(out, pending...)
			if p.tok.Kind == Comma {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if p.tok.Kind == Semicolon {
			if err := p.next(); err != nil {
				return nil, err
			}
			// Trailing semicolons are permitted.
			for p.tok.Kind == Semicolon {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if !p.verbFollows() {
				return out, nil
			}
			continue
		}
		return out, nil
	}
}

// parseGraphNode parses a term in subject or object position, including
// blank-node property lists and collections, whose expansion triples are
// appended to pending.
func (p *Parser) parseGraphNode(pending *[]Pattern) (Term, error) {
	switch p.tok.Kind {
	case Var:
		t := Variable(p.tok.Text)
		return t, p.next()
	case IRIRef:
		t := IRI(p.tok.Text)
		return t, p.next()
	case PName:
		t := Term{Kind: TermIRI, Value: p.tok.Text, PrefixedForm: true}
		return t, p.next()
	case BlankNode:
		t := Term{Kind: TermBlank, Value: p.tok.Text}
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
		pats, err := p.parsePropertyList(b)
		if err != nil {
			return Term{}, err
		}
		if err := p.expect(RBracket); err != nil {
			return Term{}, err
		}
		*pending = append(*pending, pats...)
		return b, nil
	case NIL:
		t := Term{Kind: TermIRI, Value: rdfNil}
		return t, p.next()
	case LParen:
		// Collection: ( node1 node2 ... ) expands to rdf:first/rest chains.
		return p.parseCollection(pending)
	}
	return Term{}, p.errorf("expected term, found %s %q", p.tok.Kind, p.tok.Text)
}

const (
	rdfFirst = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
	rdfRest  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
	rdfNil   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"
)

func (p *Parser) parseCollection(pending *[]Pattern) (Term, error) {
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
			*pending = append(*pending, &TriplePattern{S: cur, P: IRI(rdfRest), O: next})
			cur = next
		}
		first = false
		node, err := p.parseGraphNode(pending)
		if err != nil {
			return Term{}, err
		}
		*pending = append(*pending, &TriplePattern{S: cur, P: IRI(rdfFirst), O: node})
	}
	*pending = append(*pending, &TriplePattern{S: cur, P: IRI(rdfRest), O: IRI(rdfNil)})
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
		vd.Vars = []Term{Variable(p.tok.Text)}
		oneVar = true
		if err := p.next(); err != nil {
			return nil, err
		}
	case LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		for p.tok.Kind == Var {
			vd.Vars = append(vd.Vars, Variable(p.tok.Text))
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
		gk := GroupKey{Expr: &TermExpr{Term: Variable(p.tok.Text)}}
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
			gk.Var = Variable(p.tok.Text)
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
		m.OrderBy = append(m.OrderBy, OrderKey{Expr: &TermExpr{Term: Variable(p.tok.Text)}})
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
		l = &BinaryExpr{Op: "||", L: l, R: r}
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
		l = &BinaryExpr{Op: "&&", L: l, R: r}
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
			return &InExpr{X: l, List: list}, nil
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
			return &InExpr{X: l, Not: true, List: list}, nil
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
	return &BinaryExpr{Op: op, L: l, R: r}, nil
}

func (p *Parser) parseExprList() ([]Expr, error) {
	if p.tok.Kind == NIL {
		return nil, p.next()
	}
	if err := p.expect(LParen); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.tok.Kind == Comma {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return out, p.expect(RParen)
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
		l = &BinaryExpr{Op: op, L: l, R: r}
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
		l = &BinaryExpr{Op: op, L: l, R: r}
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
		return &UnaryExpr{Op: "!", X: x}, nil
	case Minus:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	case Plus:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "+", X: x}, nil
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
		e := &TermExpr{Term: Variable(p.tok.Text)}
		return e, p.next()
	case IRIRef, PName:
		return p.parseIRIOrFunction()
	case StringLit:
		t, err := p.parseRDFLiteral()
		if err != nil {
			return nil, err
		}
		return &TermExpr{Term: t}, nil
	case NumberLit:
		e := &TermExpr{Term: Term{Kind: TermLiteral, Value: p.tok.Text, Datatype: numericDatatype(p.tok.Text)}}
		return e, p.next()
	case Ident:
		if p.isKw("TRUE") || p.isKw("FALSE") {
			e := &TermExpr{Term: Term{Kind: TermLiteral, Value: strings.ToLower(p.tok.Text), Datatype: "http://www.w3.org/2001/XMLSchema#boolean"}}
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
		return &FuncCall{Name: t.Value, IRICall: true, PrefixedForm: t.PrefixedForm, Args: args, Distinct: distinct}, nil
	}
	return &TermExpr{Term: t}, nil
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
	up := strings.ToUpper(p.tok.Text)
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
	name := strings.ToUpper(p.tok.Text)
	switch name {
	case "EXISTS":
		if err := p.next(); err != nil {
			return nil, err
		}
		pat, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Pattern: pat}, nil
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
		return &ExistsExpr{Not: true, Pattern: pat}, nil
	}
	if aggregateNames[name] {
		return p.parseAggregate(name)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	if p.tok.Kind != LParen && p.tok.Kind != NIL {
		if zeroArgBuiltins[name] {
			return &FuncCall{Name: name}, nil
		}
		return nil, p.errorf("expected ( after %s", name)
	}
	args, distinct, err := p.parseArgList()
	if err != nil {
		return nil, err
	}
	return &FuncCall{Name: name, Args: args, Distinct: distinct}, nil
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
	var args []Expr
	if p.tok.Kind != RParen {
		for {
			e, err := p.parseExpression()
			if err != nil {
				return nil, false, err
			}
			args = append(args, e)
			if p.tok.Kind == Comma {
				if err := p.next(); err != nil {
					return nil, false, err
				}
				continue
			}
			break
		}
	}
	return args, distinct, p.expect(RParen)
}

func (p *Parser) parseAggregate(name string) (Expr, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.expect(LParen); err != nil {
		return nil, err
	}
	agg := &AggregateExpr{Name: name}
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
