// Package paths classifies property-path expressions into the 21
// expression types of Table 5 of the paper and tests membership in the
// Ctract class of Bagan et al., which governs tractability of evaluation
// under simple-path semantics (Section 7).
//
// Following the paper, the trivial navigational forms !a and ^a are
// excluded from classification (IsTrivial), and within classified
// expressions the atoms a, ^a, and !a are all treated as literals; the
// symmetric variant of each type (e.g. b/a* for a*/b) is folded into the
// type listed in the table.
//
// Classification is reporting only. The compiled path engine
// (internal/pathcomp) runs the dominant types a*, a+, (a1|···|ak)* and
// (a1|···|ak)+ as closures instead of the general product-automaton
// search, but it recognizes them from the expression's structure; it
// classifies an expression only to name its type in -explain output.
package paths

import (
	"sparqlog/internal/sparql"
)

// ExprType enumerates the expression types of Table 5, in the paper's
// row order, plus Unclassified for expressions outside the table.
type ExprType int

// Table 5 expression types.
const (
	AltStar       ExprType = iota // (a1|···|ak)*
	Star                          // a*
	Seq                           // a1/···/ak
	StarSeqLit                    // a*/b (and b/a*)
	Alt                           // a1|···|ak
	Plus                          // a+
	OptSeq                        // a1?/···/ak?
	LitAltSeq                     // a(b1|···|bk)
	LitOptSeq                     // a1/a2?/···/ak?
	SeqStarAltLit                 // (a/b*)|c
	StarOptSeq                    // a*/b?
	LitLitStarSeq                 // a/b/c*
	NegAlt                        // !(a|b)
	AltPlus                       // (a1|···|ak)+
	AltAltSeq                     // (a1|···|ak)(a1|···|ak)
	OptAltLit                     // a?|b
	StarAltLit                    // a*|b
	AltOpt                        // (a|b)?
	LitAltPlus                    // a|b+
	PlusAltPlus                   // a+|b+
	SeqStar                       // (a/b)*
	Unclassified
)

var typeNames = []string{
	"(a1|···|ak)*", "a*", "a1/···/ak", "a*/b", "a1|···|ak", "a+",
	"a1?/···/ak?", "a(b1|···|bk)", "a1/a2?/···/ak?", "(a/b*)|c", "a*/b?",
	"a/b/c*", "!(a|b)", "(a1|···|ak)+", "(a1|···|ak)(a1|···|ak)", "a?|b",
	"a*|b", "(a|b)?", "a|b+", "a+|b+", "(a/b)*", "unclassified",
}

// String returns the table's notation for the type.
func (t ExprType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "invalid"
}

// Class is the classification result: an expression type plus the arity k
// where the type is parameterized (0 otherwise).
type Class struct {
	Type ExprType
	K    int
}

// CorpusExample pairs a Table-5 expression type with a concrete SPARQL
// path expression of that type over predicates <a>, <b>, <c>.
type CorpusExample struct {
	Type ExprType
	Expr string
}

// Corpus returns a concrete expression for every one of the 21 Table-5
// types, plus type-preserving variants exercising inverse (^a) and
// negated (!a) atoms — the table treats all three atom forms as
// literals. It seeds the compiled engine's differential suite and the
// FuzzPathCompile corpus, so every row of the table has an executable
// witness.
func Corpus() []CorpusExample {
	return []CorpusExample{
		{AltStar, "(<a>|<b>)*"},
		{Star, "<a>*"},
		{Seq, "<a>/<b>/<c>"},
		{StarSeqLit, "<a>*/<b>"},
		{Alt, "<a>|<b>|<c>"},
		{Plus, "<a>+"},
		{OptSeq, "<a>?/<b>?"},
		{LitAltSeq, "<a>/(<b>|<c>)"},
		{LitOptSeq, "<a>/<b>?/<c>?"},
		{SeqStarAltLit, "(<a>/<b>*)|<c>"},
		{StarOptSeq, "<a>*/<b>?"},
		{LitLitStarSeq, "<a>/<b>/<c>*"},
		{NegAlt, "!(<a>|<b>)"},
		{AltPlus, "(<a>|<b>)+"},
		{AltAltSeq, "(<a>|<b>)/(<a>|<b>)"},
		{OptAltLit, "<a>?|<b>"},
		{StarAltLit, "<a>*|<b>"},
		{AltOpt, "(<a>|<b>)?"},
		{LitAltPlus, "<a>|<b>+"},
		{PlusAltPlus, "<a>+|<b>+"},
		{SeqStar, "(<a>/<b>)*"},
		// Inverse and negated atoms are literals to the table; these
		// variants keep the compiled engine honest on both edge kinds.
		{AltStar, "(^<a>|<b>)*"},
		{Star, "(^<a>)*"},
		{Star, "(!<a>)*"},
		{Plus, "(^<a>)+"},
		{Seq, "<a>/^<b>/<c>"},
		{StarSeqLit, "<a>*/^<b>"},
		{NegAlt, "!(<a>|^<b>)"},
		{Alt, "^<a>|!<b>"},
	}
}

// IsTrivial reports whether the expression is one of the forms the paper
// excludes from navigational analysis: !a or ^a over a single IRI.
func IsTrivial(p sparql.PathExpr) bool { return sparql.IsTrivialPath(p) }

// isLiteral reports whether p is an atom for Table 5 purposes: an IRI,
// an inverted IRI, or a negated single IRI.
func isLiteral(p sparql.PathExpr) bool {
	switch n := p.(type) {
	case *sparql.PathIRI:
		return true
	case *sparql.PathInverse:
		_, ok := n.X.(*sparql.PathIRI)
		return ok
	case *sparql.PathNeg:
		if len(n.Set) != 1 {
			return false
		}
		_, ok := n.Set[0].(*sparql.PathIRI)
		return ok
	}
	return false
}

// litAlt reports whether p is an alternation of k >= 2 literals and
// returns k.
func litAlt(p sparql.PathExpr) (int, bool) {
	alt, ok := p.(*sparql.PathAlt)
	if !ok {
		return 0, false
	}
	for _, part := range alt.Parts {
		if !isLiteral(part) {
			return 0, false
		}
	}
	return len(alt.Parts), len(alt.Parts) >= 2
}

func isMod(p sparql.PathExpr, mod byte) (sparql.PathExpr, bool) {
	m, ok := p.(*sparql.PathMod)
	if !ok || m.Mod != mod {
		return nil, false
	}
	return m.X, true
}

// litMod reports whether p is literal followed by the modifier (a*, a+, a?).
func litMod(p sparql.PathExpr, mod byte) bool {
	x, ok := isMod(p, mod)
	return ok && isLiteral(x)
}

// Classify assigns the Table 5 expression type. Trivial expressions (!a,
// ^a) and bare literals are not navigational and yield Unclassified; use
// IsTrivial to separate them beforehand.
func Classify(p sparql.PathExpr) Class {
	switch n := p.(type) {
	case *sparql.PathMod:
		switch n.Mod {
		case '*':
			if isLiteral(n.X) {
				return Class{Type: Star}
			}
			if k, ok := litAlt(n.X); ok {
				return Class{Type: AltStar, K: k}
			}
			if seq, ok := n.X.(*sparql.PathSeq); ok && allLiterals(seq.Parts) {
				return Class{Type: SeqStar, K: len(seq.Parts)}
			}
		case '+':
			if isLiteral(n.X) {
				return Class{Type: Plus}
			}
			if k, ok := litAlt(n.X); ok {
				return Class{Type: AltPlus, K: k}
			}
		case '?':
			if k, ok := litAlt(n.X); ok {
				return Class{Type: AltOpt, K: k}
			}
			if isLiteral(n.X) {
				// A bare a? is the k=1 case of a1?/···/ak?.
				return Class{Type: OptSeq, K: 1}
			}
		}
	case *sparql.PathSeq:
		return classifySeq(n.Parts)
	case *sparql.PathAlt:
		return classifyAlt(n.Parts)
	case *sparql.PathNeg:
		if len(n.Set) >= 2 && allLiterals(n.Set) {
			return Class{Type: NegAlt, K: len(n.Set)}
		}
	}
	return Class{Type: Unclassified}
}

func allLiterals(parts []sparql.PathExpr) bool {
	for _, p := range parts {
		if !isLiteral(p) {
			return false
		}
	}
	return true
}

func classifySeq(parts []sparql.PathExpr) Class {
	k := len(parts)
	if k < 2 {
		return Class{Type: Unclassified}
	}
	if allLiterals(parts) {
		return Class{Type: Seq, K: k}
	}
	// a*/b and b/a* (one starred literal, one literal).
	if k == 2 {
		if litMod(parts[0], '*') && isLiteral(parts[1]) ||
			isLiteral(parts[0]) && litMod(parts[1], '*') {
			return Class{Type: StarSeqLit}
		}
		// a*/b? and b?/a*.
		if litMod(parts[0], '*') && litMod(parts[1], '?') ||
			litMod(parts[0], '?') && litMod(parts[1], '*') {
			return Class{Type: StarOptSeq}
		}
		// a(b1|...|bk) and (b1|...|bk)a.
		if isLiteral(parts[0]) {
			if kk, ok := litAlt(parts[1]); ok {
				return Class{Type: LitAltSeq, K: kk}
			}
		}
		if isLiteral(parts[1]) {
			if kk, ok := litAlt(parts[0]); ok {
				return Class{Type: LitAltSeq, K: kk}
			}
		}
		// (a1|..|ak)(a1|..|ak).
		k1, ok1 := litAlt(parts[0])
		k2, ok2 := litAlt(parts[1])
		if ok1 && ok2 {
			kk := k1
			if k2 > kk {
				kk = k2
			}
			return Class{Type: AltAltSeq, K: kk}
		}
	}
	// All parts optional literals: a1?/···/ak?.
	allOpt := true
	for _, p := range parts {
		if !litMod(p, '?') {
			allOpt = false
			break
		}
	}
	if allOpt {
		return Class{Type: OptSeq, K: k}
	}
	// Literal prefix followed by optional literals: a1/a2?/···/ak?
	// (symmetric form: optionals first, literal last).
	if isLiteral(parts[0]) && allOptLits(parts[1:]) ||
		isLiteral(parts[k-1]) && allOptLits(parts[:k-1]) {
		return Class{Type: LitOptSeq, K: k}
	}
	// a/b/c* and c*/b/a.
	if k == 3 {
		if isLiteral(parts[0]) && isLiteral(parts[1]) && litMod(parts[2], '*') ||
			litMod(parts[0], '*') && isLiteral(parts[1]) && isLiteral(parts[2]) {
			return Class{Type: LitLitStarSeq}
		}
	}
	return Class{Type: Unclassified}
}

func allOptLits(parts []sparql.PathExpr) bool {
	for _, p := range parts {
		if !litMod(p, '?') {
			return false
		}
	}
	return len(parts) > 0
}

func classifyAlt(parts []sparql.PathExpr) Class {
	k := len(parts)
	if k < 2 {
		return Class{Type: Unclassified}
	}
	if allLiterals(parts) {
		return Class{Type: Alt, K: k}
	}
	if k == 2 {
		a, b := parts[0], parts[1]
		// a?|b (and b|a?).
		if litMod(a, '?') && isLiteral(b) || isLiteral(a) && litMod(b, '?') {
			return Class{Type: OptAltLit}
		}
		// a*|b (and b|a*).
		if litMod(a, '*') && isLiteral(b) || isLiteral(a) && litMod(b, '*') {
			return Class{Type: StarAltLit}
		}
		// a|b+ (and b+|a).
		if litMod(a, '+') && isLiteral(b) || isLiteral(a) && litMod(b, '+') {
			return Class{Type: LitAltPlus}
		}
		// a+|b+.
		if litMod(a, '+') && litMod(b, '+') {
			return Class{Type: PlusAltPlus}
		}
		// (a/b*)|c and c|(a/b*).
		if isSeqLitStar(a) && isLiteral(b) || isLiteral(a) && isSeqLitStar(b) {
			return Class{Type: SeqStarAltLit}
		}
	}
	return Class{Type: Unclassified}
}

// isSeqLitStar matches a/b* and b*/a.
func isSeqLitStar(p sparql.PathExpr) bool {
	seq, ok := p.(*sparql.PathSeq)
	if !ok || len(seq.Parts) != 2 {
		return false
	}
	return isLiteral(seq.Parts[0]) && litMod(seq.Parts[1], '*') ||
		litMod(seq.Parts[0], '*') && isLiteral(seq.Parts[1])
}

// InCtract tests membership in the Ctract class of Bagan, Bonifati, Groz
// (PODS 2013), under which property-path evaluation with simple-path
// semantics is tractable. The full characterization constrains the
// languages of starred subexpressions; for the expression types occurring
// in endpoint logs the following structural test is exact: every starred
// or plus-modified subexpression must be over a single atom or an
// alternation of atoms. In particular (a/b)* is rejected — the one
// non-Ctract expression the paper found in its corpus.
func InCtract(p sparql.PathExpr) bool {
	ok := true
	var visit func(x sparql.PathExpr)
	visit = func(x sparql.PathExpr) {
		if !ok || x == nil {
			return
		}
		switch n := x.(type) {
		case *sparql.PathMod:
			if n.Mod == '*' || n.Mod == '+' {
				if !isLiteral(n.X) {
					if _, isAlt := litAlt(n.X); !isAlt {
						ok = false
						return
					}
				}
			}
			visit(n.X)
		case *sparql.PathSeq:
			for _, part := range n.Parts {
				visit(part)
			}
		case *sparql.PathAlt:
			for _, part := range n.Parts {
				visit(part)
			}
		case *sparql.PathInverse:
			visit(n.X)
		}
	}
	visit(p)
	return ok
}

// Table5 aggregates path classifications: counts per expression type and
// the observed k ranges, matching the columns of Table 5.
type Table5 struct {
	Counts map[ExprType]int
	MinK   map[ExprType]int
	MaxK   map[ExprType]int
	// Trivial counts !a and ^a occurrences excluded from the table.
	TrivialNeg, TrivialInv int
	// NonCtract counts expressions outside Ctract.
	NonCtract int
	Total     int // classified (navigational) expressions
}

// NewTable5 returns an empty aggregation.
func NewTable5() *Table5 {
	return &Table5{
		Counts: make(map[ExprType]int),
		MinK:   make(map[ExprType]int),
		MaxK:   make(map[ExprType]int),
	}
}

// Add records one property-path expression.
func (t *Table5) Add(p sparql.PathExpr) {
	if IsTrivial(p) {
		switch p.(type) {
		case *sparql.PathNeg:
			t.TrivialNeg++
		case *sparql.PathInverse:
			t.TrivialInv++
		}
		return
	}
	c := Classify(p)
	t.Counts[c.Type]++
	t.Total++
	if c.K > 0 {
		if cur, ok := t.MinK[c.Type]; !ok || c.K < cur {
			t.MinK[c.Type] = c.K
		}
		if c.K > t.MaxK[c.Type] {
			t.MaxK[c.Type] = c.K
		}
	}
	if !InCtract(p) {
		t.NonCtract++
	}
}

// Merge folds another aggregation into t (shard/corpus aggregation):
// counts add, k ranges widen.
func (t *Table5) Merge(o *Table5) {
	for typ, v := range o.Counts {
		t.Counts[typ] += v
	}
	for typ, mk := range o.MinK {
		if cur, ok := t.MinK[typ]; !ok || mk < cur {
			t.MinK[typ] = mk
		}
	}
	for typ, mk := range o.MaxK {
		if mk > t.MaxK[typ] {
			t.MaxK[typ] = mk
		}
	}
	t.TrivialNeg += o.TrivialNeg
	t.TrivialInv += o.TrivialInv
	t.NonCtract += o.NonCtract
	t.Total += o.Total
}
