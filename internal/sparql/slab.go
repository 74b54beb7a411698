package sparql

import "sync/atomic"

// slab is storage a Parser takes nodes of one type from. A node is an
// element of the chunk being filled; a chunk that runs out is replaced
// by one twice its size, and the tree being built keeps the old one
// alive. recycle makes the chunk's nodes free for the next tree, so a
// reused Parser that has met its largest text allocates no nodes, and
// a fresh one allocates no more chunks than it makes nodes.
type slab[T any] struct {
	buf []T // the chunk being filled; its length is what is handed out
	// poison is whether the tree being built is to be poisoned when it
	// is recycled, and spent holds, only then, the chunks it filled
	// before buf.
	poison bool
	spent  [][]T
}

// take returns n contiguous elements at capacity n, so that no append
// writes past them. They may hold a recycled tree's nodes: the caller
// writes each whole.
func (s *slab[T]) take(n int) []T {
	i := len(s.buf)
	if i+n > cap(s.buf) {
		if s.poison {
			s.spent = append(s.spent, s.buf)
		}
		s.buf, i = make([]T, 0, max(2*cap(s.buf), n)), 0
	}
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// recycle frees the slab's nodes for the next tree, which is to be
// poisoned in its turn if poison is set. The nodes are not zeroed, as
// each is written whole when it is taken again; a chunk past keepNodes
// is dropped, so that one outsize text does not stay in memory, its
// nodes and, through them, its text, for the Parser's lifetime. If the
// tree that had the nodes was to be poisoned, recycle overwrites every
// node handed out since the last recycle with the type's poisoned value
// and drops the chunks, so a tree kept past its Parser's next Parse
// reads poison from then on.
func (s *slab[T]) recycle(poison bool) {
	switch {
	case s.poison:
		v := poisoned[T]()
		for _, c := range append(s.spent, s.buf) {
			for i := range c {
				c[i] = v
			}
		}
		s.buf, s.spent = nil, nil
	case cap(s.buf) > keepNodes:
		s.buf = nil
	default:
		s.buf = s.buf[:0]
	}
	s.poison = poison
}

// keepNodes is the most nodes of one type a Parser keeps from one Parse
// to the next: about 200 KB of triples, where no text of the study
// corpus needs a hundred nodes of any type.
const keepNodes = 1 << 10

// nodes is the slabs of one Parser, one per node type a tree is made
// of but the rare ones (paths, VALUES, GRAPH, SERVICE, MINUS, BIND,
// subqueries), which the heap holds.
type nodes struct {
	queries   slab[Query]
	groups    slab[Group]
	patterns  slab[Pattern] // group elements
	triples   slab[TriplePattern]
	filters   slab[Filter]
	optionals slab[Optional]
	unions    slab[Union]
	items     slab[SelectItem]
	exprs     slab[Expr] // call arguments and IN lists
	terms     slab[TermExpr]
	binaries  slab[BinaryExpr]
	unaries   slab[UnaryExpr]
	calls     slab[FuncCall]
	aggs      slab[AggregateExpr]
	exists    slab[ExistsExpr]
	ins       slab[InExpr]
}

func (n *nodes) recycle(poison bool) {
	n.queries.recycle(poison)
	n.groups.recycle(poison)
	n.patterns.recycle(poison)
	n.triples.recycle(poison)
	n.filters.recycle(poison)
	n.optionals.recycle(poison)
	n.unions.recycle(poison)
	n.items.recycle(poison)
	n.exprs.recycle(poison)
	n.terms.recycle(poison)
	n.binaries.recycle(poison)
	n.unaries.recycle(poison)
	n.calls.recycle(poison)
	n.aggs.recycle(poison)
	n.exists.recycle(poison)
	n.ins.recycle(poison)
}

// TestHookPoison, when set, makes every Parse poison the nodes of the
// Parser's previous tree instead of recycling them: each term of a
// poisoned node is the IRI recycledIRI, and each node it points to is
// poisoned too. A consumer that keeps a tree past its Parser's next
// Parse then reads poison, not another text's nodes, and a test that
// compares what it computed fails. Tests set it; programs never do.
var TestHookPoison atomic.Bool

// recycledIRI is the IRI every term of a poisoned node holds.
const recycledIRI = "urn:sparqlog:recycled"

var (
	recycledTerm   = Term{Kind: TermIRI, Value: recycledIRI}
	recycledVar    = Term{Kind: TermVar, Value: recycledIRI}
	recycledExpr   = &TermExpr{Term: recycledTerm}
	recycledTriple = &TriplePattern{S: recycledTerm, P: recycledTerm, O: recycledTerm}
	recycledGroup  = &Group{Elems: []Pattern{recycledTriple}}
)

// poisoned returns the poisoned value of a node type of the slabs.
func poisoned[T any]() T {
	var v T
	switch x := any(&v).(type) {
	case *Query:
		*x = Query{Select: []SelectItem{{Var: recycledVar}}, Where: recycledGroup, Mods: Modifiers{Limit: -1, Offset: -1}}
	case *Group:
		*x = *recycledGroup
	case *Pattern:
		*x = recycledTriple
	case *TriplePattern:
		*x = *recycledTriple
	case *Filter:
		x.Constraint = recycledExpr
	case *Optional:
		x.Inner = recycledGroup
	case *Union:
		x.Left, x.Right = recycledGroup, recycledGroup
	case *SelectItem:
		x.Var = recycledVar
	case *Expr:
		*x = recycledExpr
	case *TermExpr:
		*x = *recycledExpr
	case *BinaryExpr:
		*x = BinaryExpr{Op: "=", L: recycledExpr, R: recycledExpr}
	case *UnaryExpr:
		*x = UnaryExpr{Op: "!", X: recycledExpr}
	case *FuncCall:
		*x = FuncCall{Name: recycledIRI, IRICall: true, Args: []Expr{recycledExpr}}
	case *AggregateExpr:
		*x = AggregateExpr{Name: "SAMPLE", Arg: recycledExpr}
	case *ExistsExpr:
		x.Pattern = recycledGroup
	case *InExpr:
		*x = InExpr{X: recycledExpr, List: []Expr{recycledExpr}}
	default:
		panic("sparql: no poisoned value for a slab's node type")
	}
	return v
}

// take returns a copy of (*scratch)[mark:] from sl at its exact size,
// nil when it is empty, and truncates *scratch to mark: a node's list
// (a group's elements, a SELECT clause, call arguments) collects on a
// scratch stack while nested lists open and close above it.
func take[T any](scratch *[]T, mark int, sl *slab[T]) []T {
	s := *scratch
	if len(s) == mark {
		return nil
	}
	out := sl.take(len(s) - mark)
	copy(out, s[mark:])
	*scratch = s[:mark]
	return out
}
