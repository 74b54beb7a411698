package sparql

// PathExpr is a SPARQL 1.1 property-path expression: a regular expression
// over IRIs with inversion (^) and negated property sets (!).
// Implementations: *PathIRI, *PathInverse, *PathSeq, *PathAlt, *PathMod,
// *PathNeg.
type PathExpr interface {
	path()
}

// PathIRI is an atomic path: a single predicate IRI (or the keyword 'a',
// which the parser expands to RDFType).
type PathIRI struct {
	// IRI is the IRI as written: a full IRI, or a prefixed name to
	// expand against the prologue.
	IRI string
	// PrefixedForm records whether the IRI was written as a prefixed
	// name, exactly as Term.PrefixedForm does.
	PrefixedForm bool
}

// PathInverse is ^elt: follow an edge in reverse direction.
type PathInverse struct {
	X PathExpr
}

// PathSeq is p1 / p2 / ... / pk.
type PathSeq struct {
	Parts []PathExpr
}

// PathAlt is p1 | p2 | ... | pk.
type PathAlt struct {
	Parts []PathExpr
}

// PathMod applies a repetition modifier: '*', '+', or '?'.
type PathMod struct {
	X   PathExpr
	Mod byte
}

// PathNeg is a negated property set !(iri1 | ^iri2 | ...). Elements are
// *PathIRI or *PathInverse of *PathIRI.
type PathNeg struct {
	Set []PathExpr
}

func (*PathIRI) path()     {}
func (*PathInverse) path() {}
func (*PathSeq) path()     {}
func (*PathAlt) path()     {}
func (*PathMod) path()     {}
func (*PathNeg) path()     {}

// PathString renders a path expression in SPARQL syntax with minimal
// parenthesization.
func PathString(p PathExpr) string {
	var w writer
	w.path(p, 0)
	return w.String()
}

// Precedence levels: alt(1) < seq(2) < inverse/mod(3) < atom(4).
func pathPrec(p PathExpr) int {
	switch p.(type) {
	case *PathAlt:
		return 1
	case *PathSeq:
		return 2
	case *PathInverse, *PathMod:
		return 3
	default:
		return 4
	}
}

func (w *writer) path(p PathExpr, parent int) {
	prec := pathPrec(p)
	paren := prec < parent
	if paren {
		w.WriteByte('(')
	}
	switch n := p.(type) {
	case *PathIRI:
		w.verb(n.IRI, n.PrefixedForm)
	case *PathInverse:
		w.WriteByte('^')
		w.path(n.X, 4)
	case *PathSeq:
		for i, part := range n.Parts {
			if i > 0 {
				w.WriteByte('/')
			}
			w.path(part, 3)
		}
	case *PathAlt:
		for i, part := range n.Parts {
			if i > 0 {
				w.WriteByte('|')
			}
			w.path(part, 2)
		}
	case *PathMod:
		w.path(n.X, 4)
		w.WriteByte(n.Mod)
	case *PathNeg:
		w.WriteByte('!')
		if len(n.Set) == 1 {
			w.path(n.Set[0], 4)
		} else {
			w.WriteByte('(')
			for i, part := range n.Set {
				if i > 0 {
					w.WriteByte('|')
				}
				w.path(part, 2)
			}
			w.WriteByte(')')
		}
	}
	if paren {
		w.WriteByte(')')
	}
}

// IsTrivialPath reports whether the path is one of the two forms the paper
// excludes from the navigational analysis: !a ("follow an edge not labeled
// a") and ^a ("follow an a-edge in reverse"). Plain IRIs never reach the
// path classifier because the parser folds them into triple patterns.
func IsTrivialPath(p PathExpr) bool {
	switch n := p.(type) {
	case *PathNeg:
		if len(n.Set) != 1 {
			return false
		}
		_, ok := n.Set[0].(*PathIRI)
		return ok
	case *PathInverse:
		_, ok := n.X.(*PathIRI)
		return ok
	}
	return false
}
