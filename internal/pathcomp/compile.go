// Package pathcomp is the compiled property-path engine: a SPARQL 1.1
// path expression is compiled once into a Glushkov/Thompson-style NFA
// over resolved predicate IDs, and evaluated as a breadth-first search
// over the product of the automaton and the snapshot's CSR indexes,
// using dense bitset frontiers (rdf.Bitset) instead of per-node hash
// sets. Expansion is semi-naive: only newly reached (state, node) pairs
// are expanded, so cyclic data costs each product node once.
//
// The dominant Table-5 expression types of the source paper — a*, a+,
// and (a1|···|ak)* / (a1|···|ak)+, with plain or inverted atoms — bypass
// the product construction entirely and run as single-bitset closures
// over an adjacency built from the atoms' POS rows. detectClosure
// recognizes them from the expression's structure; the Table-5 class
// of internal/paths is only reported, by Describe. Everything else,
// including negated property sets and nested structure, goes through
// the general automaton.
//
// A compiled Path is immutable after Compile (its sync.Pools are the
// only mutable state). Compilation is resolver-dependent (the same text
// resolves to different IDs on different snapshots), so a compiled path
// is bound to one snapshot. Each query compiles its own paths, once per
// path pattern: compiling costs microseconds, and the queries the source
// paper studies repeat as whole queries, which the result cache absorbs.
package pathcomp

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// Resolver maps a prefixed name in a path expression to snapshot IDs,
// typically by expanding it against the query's prologue. Compile looks
// a path's full IRIs up in the snapshot directly.
type Resolver func(pname string) (rdf.ID, bool)

// opKind is the traversal kind of one automaton transition.
type opKind uint8

const (
	// opFwd follows forward edges labeled pid.
	opFwd opKind = iota
	// opInv follows edges labeled pid in reverse.
	opInv
	// opNegFwd follows forward edges whose predicate is NOT in excl.
	opNegFwd
	// opNegInv follows reverse edges whose predicate is NOT in excl.
	opNegInv
	// opDead never matches: an atom whose IRI is absent from the
	// dictionary. Kept so the automaton stays structurally total.
	opDead
)

// edge is one transition of the epsilon-free NFA.
type edge struct {
	kind opKind
	pid  rdf.ID
	excl []rdf.ID // sorted exclusion set for opNegFwd/opNegInv
	to   int32
}

// nfa is an epsilon-free automaton: per state, its outgoing transitions
// and whether it accepts.
type nfa struct {
	edges  [][]edge
	accept []bool
	start  int32
}

// dirPred is one closure fast-path atom: a predicate followed forward
// or in reverse.
type dirPred struct {
	pid rdf.ID
	inv bool
}

// Path is a compiled property path bound to one snapshot. The automaton
// is immutable after Compile and safe for concurrent use; evaluation
// scratch (frontier bitsets, work stacks) is pooled per Path, so a
// caller evaluating the same path under many bindings pays allocation
// once and reset cost proportional to what each search touched.
type Path struct {
	sn   *rdf.Snapshot
	expr sparql.PathExpr

	// fwd evaluates the path left to right; rev is the automaton of the
	// reversed expression, used for object-bound evaluation and for
	// PathHolds' direction choice.
	fwd, rev *nfa

	// Closure fast path (a*, a+, (a1|···|ak)*, (a1|···|ak)+): single
	// bitset reachability over atoms, bypassing the product automaton.
	closure   bool
	reflexive bool
	atoms     []dirPred

	// Scratch pools, keyed by direction for the product runners. Values
	// are returned reset, ready for the next search.
	fwdPool, revPool, scPool sync.Pool
}

// Compile builds the automaton for p against sn's dictionary: a full
// IRI is looked up in it, a prefixed name through resolve. IRIs that
// map to no ID compile to dead transitions (they can never match,
// exactly as in the interpretive evaluator).
func Compile(sn *rdf.Snapshot, p sparql.PathExpr, resolve Resolver) *Path {
	pa := &Path{sn: sn, expr: p}
	lookup := func(a *sparql.PathIRI) (rdf.ID, bool) {
		if a.PrefixedForm {
			return resolve(a.IRI)
		}
		return sn.Lookup(a.IRI)
	}
	fc := &compiler{lookup: lookup}
	pa.fwd = fc.build(p, false)
	rc := &compiler{lookup: lookup}
	pa.rev = rc.build(p, true)
	pa.detectClosure(lookup)
	return pa
}

// detectClosure recognizes the closure fast path: a '*' or '+' over one
// atom or an alternation of atoms, where every atom is a plain or
// inverted IRI. Negated atoms and nested structure fall back to the
// general automaton. Unresolved atoms are dropped (they contribute no
// edges), matching the interpreter.
func (pa *Path) detectClosure(lookup func(*sparql.PathIRI) (rdf.ID, bool)) {
	mod, ok := pa.expr.(*sparql.PathMod)
	if !ok || (mod.Mod != '*' && mod.Mod != '+') {
		return
	}
	var parts []sparql.PathExpr
	if alt, isAlt := mod.X.(*sparql.PathAlt); isAlt {
		parts = alt.Parts
	} else {
		parts = []sparql.PathExpr{mod.X}
	}
	var atoms []dirPred
	for _, part := range parts {
		switch a := part.(type) {
		case *sparql.PathIRI:
			if pid, ok := lookup(a); ok {
				atoms = append(atoms, dirPred{pid: pid})
			}
		case *sparql.PathInverse:
			iri, isIRI := a.X.(*sparql.PathIRI)
			if !isIRI {
				return
			}
			if pid, ok := lookup(iri); ok {
				atoms = append(atoms, dirPred{pid: pid, inv: true})
			}
		default:
			return
		}
	}
	pa.closure = true
	pa.reflexive = mod.Mod == '*'
	pa.atoms = atoms
}

// Snapshot returns the snapshot the path was compiled against.
func (pa *Path) Snapshot() *rdf.Snapshot { return pa.sn }

// Expr returns the source expression.
func (pa *Path) Expr() sparql.PathExpr { return pa.expr }

// NumStates returns the forward automaton's state count.
func (pa *Path) NumStates() int { return len(pa.fwd.edges) }

// ---------- Thompson construction + epsilon elimination ----------

// compiler builds an epsilon-NFA bottom-up, then eliminates epsilon
// transitions into the compact nfa form evaluation runs on.
type compiler struct {
	lookup func(*sparql.PathIRI) (rdf.ID, bool)
	eps    [][]int32
	edges  [][]edge
}

type frag struct{ start, accept int32 }

func (c *compiler) state() int32 {
	c.eps = append(c.eps, nil)
	c.edges = append(c.edges, nil)
	return int32(len(c.eps) - 1)
}

func (c *compiler) epsEdge(from, to int32)     { c.eps[from] = append(c.eps[from], to) }
func (c *compiler) addEdge(from int32, e edge) { c.edges[from] = append(c.edges[from], e) }

// build compiles p (reversed when inv: ^p distributes over the whole
// subtree, flipping atom directions and sequence order) and returns the
// epsilon-free automaton.
func (c *compiler) build(p sparql.PathExpr, inv bool) *nfa {
	f := c.compile(p, inv)
	return c.eliminate(f)
}

func (c *compiler) compile(p sparql.PathExpr, inv bool) frag {
	switch n := p.(type) {
	case *sparql.PathIRI:
		s, a := c.state(), c.state()
		kind := opFwd
		if inv {
			kind = opInv
		}
		if pid, ok := c.lookup(n); ok {
			c.addEdge(s, edge{kind: kind, pid: pid, to: a})
		} else {
			c.addEdge(s, edge{kind: opDead, to: a})
		}
		return frag{s, a}
	case *sparql.PathInverse:
		return c.compile(n.X, !inv)
	case *sparql.PathSeq:
		if len(n.Parts) == 0 {
			s := c.state()
			return frag{s, s}
		}
		parts := n.Parts
		var cur frag
		for i := range parts {
			part := parts[i]
			if inv {
				part = parts[len(parts)-1-i]
			}
			f := c.compile(part, inv)
			if i == 0 {
				cur = f
				continue
			}
			c.epsEdge(cur.accept, f.start)
			cur.accept = f.accept
		}
		return cur
	case *sparql.PathAlt:
		s, a := c.state(), c.state()
		for _, part := range n.Parts {
			f := c.compile(part, inv)
			c.epsEdge(s, f.start)
			c.epsEdge(f.accept, a)
		}
		return frag{s, a}
	case *sparql.PathMod:
		switch n.Mod {
		case '?':
			inner := c.compile(n.X, inv)
			s, a := c.state(), c.state()
			c.epsEdge(s, inner.start)
			c.epsEdge(inner.accept, a)
			c.epsEdge(s, a)
			return frag{s, a}
		case '*':
			inner := c.compile(n.X, inv)
			s := c.state()
			c.epsEdge(s, inner.start)
			c.epsEdge(inner.accept, s)
			return frag{s, s}
		case '+':
			inner := c.compile(n.X, inv)
			c.epsEdge(inner.accept, inner.start)
			return inner
		}
		// Unknown modifier: match the inner expression once.
		return c.compile(n.X, inv)
	case *sparql.PathNeg:
		return c.compileNeg(n.Set, inv)
	}
	// Unknown node: a dead fragment that matches nothing.
	s, a := c.state(), c.state()
	c.addEdge(s, edge{kind: opDead, to: a})
	return frag{s, a}
}

// compileNeg builds the negated-property-set transition(s), mirroring
// the W3C semantics of the interpretive evaluator: forward members
// exclude forward edges, inverse members exclude reverse edges; forward
// edges are traversed when the set has forward members or no inverse
// members at all, reverse edges only when it has inverse members. Under
// inversion (^!(...)) member directions flip.
func (c *compiler) compileNeg(set []sparql.PathExpr, inv bool) frag {
	var exclFwd, exclInv []rdf.ID
	var hasFwd, hasInv bool
	for _, x := range set {
		switch n := x.(type) {
		case *sparql.PathIRI:
			hasFwd = true
			if pid, ok := c.lookup(n); ok {
				exclFwd = append(exclFwd, pid)
			}
		case *sparql.PathInverse:
			if iri, ok := n.X.(*sparql.PathIRI); ok {
				hasInv = true
				if pid, ok := c.lookup(iri); ok {
					exclInv = append(exclInv, pid)
				}
			}
		}
	}
	if inv {
		exclFwd, exclInv = exclInv, exclFwd
		hasFwd, hasInv = hasInv, hasFwd
	}
	sortIDs(exclFwd)
	sortIDs(exclInv)
	s, a := c.state(), c.state()
	if hasFwd || !hasInv {
		c.addEdge(s, edge{kind: opNegFwd, excl: exclFwd, to: a})
	}
	if hasInv {
		c.addEdge(s, edge{kind: opNegInv, excl: exclInv, to: a})
	}
	return frag{s, a}
}

func sortIDs(ids []rdf.ID) { slices.Sort(ids) }

// eliminate converts the epsilon-NFA into an epsilon-free nfa reachable
// from the fragment's start: each surviving state adopts the non-epsilon
// transitions of its epsilon closure and accepts when the closure
// contains the fragment accept state.
func (c *compiler) eliminate(f frag) *nfa {
	n := len(c.eps)
	closures := make([][]int32, n)
	var stack []int32
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack = append(stack[:0], int32(s))
		seen[s] = true
		var cl []int32
		//ctxpoll:ignore compile-time DFS: the seen set bounds it by the automaton's state count
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, cur)
			for _, t := range c.eps[cur] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		closures[s] = cl
	}

	// Gather each state's effective transitions and acceptance.
	type flat struct {
		edges  []edge
		accept bool
	}
	flats := make([]flat, n)
	for s := 0; s < n; s++ {
		var fl flat
		for _, m := range closures[s] {
			if m == f.accept {
				fl.accept = true
			}
			fl.edges = append(fl.edges, c.edges[m]...)
		}
		flats[s] = fl
	}

	// Keep only states reachable from start via non-epsilon transitions,
	// renumbering densely; drop dead transitions and duplicate edges.
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	order := []int32{f.start}
	remap[f.start] = 0
	for i := 0; i < len(order); i++ {
		for _, e := range flats[order[i]].edges {
			if e.kind == opDead {
				continue
			}
			if remap[e.to] == -1 {
				remap[e.to] = int32(len(order))
				order = append(order, e.to)
			}
		}
	}
	out := &nfa{
		edges:  make([][]edge, len(order)),
		accept: make([]bool, len(order)),
		start:  0,
	}
	for ni, old := range order {
		out.accept[ni] = flats[old].accept
		seen := map[string]bool{}
		for _, e := range flats[old].edges {
			if e.kind == opDead {
				continue
			}
			e.to = remap[e.to]
			k := edgeKeyOf(e)
			if seen[k] {
				continue
			}
			seen[k] = true
			out.edges[ni] = append(out.edges[ni], e)
		}
	}
	return out
}

// edgeKeyOf serializes an edge for deduplication.
func edgeKeyOf(e edge) string {
	var b strings.Builder
	b.WriteByte(byte('0' + e.kind))
	b.WriteString(strconv.FormatUint(uint64(e.pid), 10))
	b.WriteByte('>')
	b.WriteString(strconv.FormatInt(int64(e.to), 10))
	for _, x := range e.excl {
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(uint64(x), 10))
	}
	return b.String()
}

// Deprecated: Cache is an empty type no code reads; every query
// compiles its own paths. It remains only because the benchmark module
// (bench/) still names it; ROADMAP item 1(c) deletes it.
type Cache struct{}

// Deprecated: NewCache returns nil; see Cache.
func NewCache(*rdf.Snapshot) *Cache { return nil }
