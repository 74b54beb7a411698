// Package shapes builds the canonical graphs and hypergraphs of queries
// (Section 5 of the paper) and classifies their shapes following the
// cumulative scheme of Table 4: single edge, chain, chain set, star, tree,
// forest, cycle, flower, flower set, treewidth <= 2, treewidth = 3.
//
// A Builder is the one construction: it numbers a query's terms into
// scratch it keeps, so the study builds every unique query's graphs
// without building strings, and a warm Builder builds a forest without
// allocating. What it returns
// is its own storage, valid until its next build of the same kind; the
// study's Builder belongs to one worker slot and its results are read
// before the slot's next query. CanonicalGraph and CanonicalHypergraph
// build once on a Builder of their own, for callers that keep the
// result.
package shapes

import (
	"hash/maphash"

	"sparqlog/internal/graph"
	"sparqlog/internal/hypergraph"
	"sparqlog/internal/sparql"
)

// Options configures canonical graph construction.
type Options struct {
	// ExcludeConstants drops constant nodes (IRIs and literals in subject
	// or object position) and their incident edges, for the paper's
	// variables-only rerun of the shape analysis in Section 6.1.
	ExcludeConstants bool
	// CollapseEqual lists variable pairs to merge into one node, coming
	// from simple filters of the form ?x = ?y (footnote 20).
	CollapseEqual [][2]string
}

// Builder builds canonical graphs and hypergraphs without building
// strings, into storage it keeps from one build to the next. It numbers
// each distinct term of a build by kind: variables, blank labels and
// IRIs by their Value (an IRI's PrefixedForm plays no part), literals by
// value, language tag and datatype. The ?x = ?y collapses of
// Options.CollapseEqual run as a union-find over those numbers.
//
// The triples, graph and hypergraph a Builder returns are its own
// storage: each stays valid until the builder's next call of the same
// method, which overwrites it. A Builder is not safe for concurrent use;
// the study keeps one per worker. What it keeps is bounded by the
// largest query it has built: a few words per triple and per distinct
// term, and an index of at most four slots per distinct term.
//
// The zero Builder is ready to use.
type Builder struct {
	triples []*sparql.TriplePattern
	// terms lists the build's distinct terms by number, and slots is an
	// open-addressing index over them. A slot holds a number only if it
	// carries the build's generation gen, so a build starts with an
	// empty index without clearing it.
	terms []termID
	slots []termSlot
	gen   uint32
	seed  maphash.Seed
	// parent is the union-find over term numbers; node maps a term's
	// root to its node or vertex, -1 until the build reaches it.
	parent, node []int32
	nodes        int32
	// pending holds a graph's edges as endpoint pairs, a hypergraph's
	// as vertex triples with -1 for a constant, until the node count is
	// known.
	pending []int32
	g       *graph.Graph
	h       *hypergraph.Hypergraph
}

// termID is a term's identity in a canonical (hyper)graph: its kind and
// Value, and for a literal its language tag and datatype.
type termID struct {
	kind                  sparql.TermKind
	value, lang, datatype string
}

// termSlot is one slot of a Builder's term index.
type termSlot struct {
	gen uint32
	id  int32
}

// Triples returns q's triple patterns, as q.Triples does, in the
// builder's storage.
func (b *Builder) Triples(q *sparql.Query) []*sparql.TriplePattern {
	b.triples = q.AppendTriples(b.triples[:0])
	return b.triples
}

// reset forgets the previous build and unites the variables of each
// collapse pair.
func (b *Builder) reset(collapse [][2]string) {
	b.terms = b.terms[:0]
	if b.gen++; b.gen == 0 { // wrapped: a slot may carry this generation
		clear(b.slots)
		b.gen = 1
	}
	b.parent, b.node, b.nodes, b.pending = b.parent[:0], b.node[:0], 0, b.pending[:0]
	for _, pair := range collapse {
		x, y := b.find(b.term(sparql.Variable(pair[0]))), b.find(b.term(sparql.Variable(pair[1])))
		b.parent[x] = y
	}
}

// term returns t's number, numbering it if it is new to this build.
func (b *Builder) term(t sparql.Term) int32 {
	k := termID{kind: t.Kind, value: t.Value}
	if t.Kind == sparql.TermLiteral {
		k.lang, k.datatype = t.Lang, t.Datatype
	}
	if 2*(len(b.terms)+1) > len(b.slots) {
		b.grow()
	}
	i := b.slot(k)
	if s := b.slots[i]; s.gen == b.gen {
		return s.id
	}
	id := int32(len(b.terms))
	b.slots[i] = termSlot{b.gen, id}
	b.terms = append(b.terms, k)
	b.parent = append(b.parent, id)
	b.node = append(b.node, -1)
	return id
}

// slot returns the index slot that holds k's number, or the empty slot
// where it goes. Terms that differ only in a literal's language tag or
// datatype share a probe sequence.
func (b *Builder) slot(k termID) uint64 {
	mask := uint64(len(b.slots) - 1)
	i := (maphash.String(b.seed, k.value) ^ uint64(k.kind)) & mask
	for ; ; i = (i + 1) & mask {
		if s := b.slots[i]; s.gen != b.gen || b.terms[s.id] == k {
			return i
		}
	}
}

// grow doubles the term index, which stays at most half full, and
// enters the build's terms again.
func (b *Builder) grow() {
	if b.slots == nil {
		b.seed = maphash.MakeSeed()
	}
	b.slots = make([]termSlot, max(16, 2*len(b.slots)))
	for id, k := range b.terms {
		b.slots[b.slot(k)] = termSlot{b.gen, int32(id)}
	}
}

// find returns the root of term x's class, halving the path.
func (b *Builder) find(x int32) int32 {
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}

// nodeOf returns the node of t's class, numbering classes in the order
// the build first reaches them.
func (b *Builder) nodeOf(t sparql.Term) int32 {
	r := b.find(b.term(t))
	if b.node[r] < 0 {
		b.node[r] = b.nodes
		b.nodes++
	}
	return b.node[r]
}

// Graph builds the canonical graph of the triple patterns: one node per
// distinct subject/object term and an undirected edge {x, y} per triple
// whose predicate is a constant. The second return reports whether any
// triple uses a variable in predicate position, in which case the
// canonical graph is not meaningful for cyclicity (Example 5.1) and the
// hypergraph must be used instead.
func (b *Builder) Graph(triples []*sparql.TriplePattern, opts Options) (*graph.Graph, bool) {
	b.reset(opts.CollapseEqual)
	hasVarPred := false
	for _, tp := range triples {
		if tp.P.IsVar() {
			hasVarPred = true
		}
		// The canonical graph's nodes are edge endpoints: when an edge is
		// excluded (a constant endpoint in variables-only mode), neither
		// endpoint contributes a node.
		if opts.ExcludeConstants && (!tp.S.IsNodeVar() || !tp.O.IsNodeVar()) {
			continue
		}
		b.pending = append(b.pending, b.nodeOf(tp.S), b.nodeOf(tp.O))
	}
	if b.g == nil {
		b.g = graph.New(0)
	}
	b.g.Reset(int(b.nodes))
	for i := 0; i < len(b.pending); i += 2 {
		b.g.AddEdge(int(b.pending[i]), int(b.pending[i+1]))
	}
	return b.g, hasVarPred
}

// Hypergraph builds the canonical hypergraph: one vertex per variable or
// blank node, and per triple pattern one hyperedge containing the
// variables and blank nodes appearing in it (Section 5). Triples with no
// variables contribute nothing.
func (b *Builder) Hypergraph(triples []*sparql.TriplePattern, opts Options) *hypergraph.Hypergraph {
	b.reset(opts.CollapseEqual)
	for _, tp := range triples {
		for _, t := range [3]sparql.Term{tp.S, tp.P, tp.O} {
			v := int32(-1)
			if t.IsNodeVar() {
				v = b.nodeOf(t)
			}
			b.pending = append(b.pending, v)
		}
	}
	if b.h == nil {
		b.h = hypergraph.New(0)
	}
	b.h.Reset(int(b.nodes))
	for i := 0; i < len(b.pending); i += 3 {
		var e [3]int
		k := 0
		for _, v := range b.pending[i : i+3] {
			if v >= 0 {
				e[k] = int(v)
				k++
			}
		}
		b.h.AddEdge(e[:k]...)
	}
	return b.h
}

// CanonicalGraph is Builder.Graph on a builder of its own, for callers
// that build one graph.
func CanonicalGraph(triples []*sparql.TriplePattern, opts Options) (*graph.Graph, bool) {
	return new(Builder).Graph(triples, opts)
}

// CanonicalHypergraph is Builder.Hypergraph on a builder of its own, for
// callers that build one hypergraph.
func CanonicalHypergraph(triples []*sparql.TriplePattern, opts Options) *hypergraph.Hypergraph {
	return new(Builder).Hypergraph(triples, opts)
}

// Report carries the full cumulative shape classification of one canonical
// graph, mirroring the rows of Table 4.
type Report struct {
	SingleEdge bool
	Chain      bool
	ChainSet   bool
	Star       bool
	Tree       bool
	Forest     bool
	Cycle      bool
	Flower     bool
	FlowerSet  bool
	Treewidth  int // exact; -1 if beyond the exact search bound
	Girth      int // 0 when acyclic
}

// Classify computes the shape report of a canonical graph.
func Classify(g *graph.Graph) Report {
	r := Report{
		SingleEdge: g.IsSingleEdge(),
		Chain:      g.IsChain(),
		ChainSet:   g.IsChainSet(),
		Star:       g.IsStar(),
		Tree:       g.IsTree(),
		Forest:     g.IsForest(),
		Cycle:      g.IsCycle(),
		Flower:     g.IsFlower(),
		FlowerSet:  g.IsFlowerSet(),
		Treewidth:  g.Treewidth(),
		Girth:      g.Girth(),
	}
	return r
}

// CumulativeClass returns the most specific label of the Table 4 hierarchy
// for display purposes: the first class in the paper's row order that the
// graph belongs to.
func (r Report) CumulativeClass() string {
	switch {
	case r.SingleEdge:
		return "single edge"
	case r.Chain:
		return "chain"
	case r.ChainSet:
		return "chain set"
	case r.Star:
		return "star"
	case r.Tree:
		return "tree"
	case r.Forest:
		return "forest"
	case r.Cycle:
		return "cycle"
	case r.Flower:
		return "flower"
	case r.FlowerSet:
		return "flower set"
	case r.Treewidth >= 0 && r.Treewidth <= 2:
		return "treewidth <= 2"
	case r.Treewidth == 3:
		return "treewidth = 3"
	default:
		return "other"
	}
}
