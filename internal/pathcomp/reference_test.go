package pathcomp_test

import (
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// The naive interpretive property-path evaluator, under the W3C SPARQL
// 1.1 semantics: fixed-length operators (sequence, alternation, inverse,
// negated property sets) compose relations; arbitrary-length operators
// (*, +, ?) are evaluated as reachability with node-set semantics, so
// they terminate on cyclic data. (Bagan et al.'s Ctract dichotomy
// concerns the stricter simple-path semantics, which is NP-hard in
// general and not used by SPARQL endpoints.)
//
// Queries evaluate paths through this package's compiled NFA and bitset
// product-graph search. The recursive interpreter it replaced lives here,
// in the tests, as the executable specification the differential suite
// and the fuzz target check the compiled engine against.

// naiveFrom is the interpretive reference for Path.From: per-node
// recursive evaluation over hash sets.
func naiveFrom(sn *rdf.Snapshot, start rdf.ID, p sparql.PathExpr, resolve pathcomp.Resolver) map[rdf.ID]bool {
	e := &pathEval{sn: sn, resolve: resolve}
	out := make(map[rdf.ID]bool)
	e.from(start, p, func(n rdf.ID) bool { out[n] = true; return true })
	return out
}

// naiveHolds is the interpretive reference for Path.Holds. Even the
// interpreter short-circuits: the yield callback's stop signal unwinds
// the traversal as soon as the target is seen, instead of materializing
// the full closure.
func naiveHolds(sn *rdf.Snapshot, s, o rdf.ID, p sparql.PathExpr, resolve pathcomp.Resolver) bool {
	found := false
	e := &pathEval{sn: sn, resolve: resolve}
	e.from(s, p, func(n rdf.ID) bool {
		if n == o {
			found = true
			return false
		}
		return true
	})
	return found
}

// naivePairs is the interpretive reference for Path.Pairs: a
// per-start-node closure enumeration over all subject/object nodes.
func naivePairs(sn *rdf.Snapshot, p sparql.PathExpr, resolve pathcomp.Resolver, limit int) [][2]rdf.ID {
	e := &pathEval{sn: sn, resolve: resolve}
	var out [][2]rdf.ID
	seenStart := make(map[rdf.ID]bool)
	for _, t := range sn.Triples() {
		for _, s := range [2]rdf.ID{t.S, t.O} {
			if seenStart[s] {
				continue
			}
			seenStart[s] = true
			e.from(s, p, func(n rdf.ID) bool {
				out = append(out, [2]rdf.ID{s, n})
				return limit <= 0 || len(out) < limit
			})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

type pathEval struct {
	sn      *rdf.Snapshot
	resolve pathcomp.Resolver
}

// from streams the nodes reachable from start via p (with duplicates
// possible for fixed-length parts; callers deduplicate as needed). The
// yield callback returns false to stop the traversal; from propagates
// the stop by returning false itself.
func (e *pathEval) from(start rdf.ID, p sparql.PathExpr, yield func(rdf.ID) bool) bool {
	switch n := p.(type) {
	case *sparql.PathIRI:
		if pid, ok := e.resolve(n.IRI); ok {
			for _, o := range e.sn.Objects(start, pid) {
				if !yield(o) {
					return false
				}
			}
		}
	case *sparql.PathInverse:
		return e.inverseFrom(start, n.X, yield)
	case *sparql.PathSeq:
		return e.seqFrom(start, n.Parts, yield)
	case *sparql.PathAlt:
		for _, part := range n.Parts {
			if !e.from(start, part, yield) {
				return false
			}
		}
	case *sparql.PathMod:
		switch n.Mod {
		case '?':
			if !yield(start) {
				return false
			}
			return e.from(start, n.X, yield)
		case '*', '+':
			return e.closure(start, n.X, n.Mod == '*', yield)
		}
	case *sparql.PathNeg:
		return e.negFrom(start, n.Set, yield)
	}
	return true
}

// inverseFrom follows X backwards. Only the atomic forms the grammar
// allows under ^ are supported (IRI); general inversion recurses.
func (e *pathEval) inverseFrom(start rdf.ID, x sparql.PathExpr, yield func(rdf.ID) bool) bool {
	if iri, ok := x.(*sparql.PathIRI); ok {
		if pid, ok := e.resolve(iri.IRI); ok {
			for _, s := range e.sn.Subjects(pid, start) {
				if !yield(s) {
					return false
				}
			}
		}
		return true
	}
	// General case: scan candidate sources (rare in practice; the
	// grammar nests ^ around atoms). Objects count as candidates too —
	// a reflexive inner path (e.g. ^(a*)) matches zero-length from
	// nodes that never appear in subject position.
	seen := make(map[rdf.ID]bool)
	for _, t := range e.sn.Triples() {
		for _, src := range [2]rdf.ID{t.S, t.O} {
			if seen[src] {
				continue
			}
			seen[src] = true
			hit := false
			e.from(src, x, func(n rdf.ID) bool {
				if n == start {
					hit = true
					return false
				}
				return true
			})
			if hit && !yield(src) {
				return false
			}
		}
	}
	return true
}

func (e *pathEval) seqFrom(start rdf.ID, parts []sparql.PathExpr, yield func(rdf.ID) bool) bool {
	if len(parts) == 0 {
		return yield(start)
	}
	// Deduplicate the frontier between stages to avoid exponential
	// re-exploration on diamond-shaped data.
	frontier := map[rdf.ID]bool{start: true}
	for _, part := range parts[:len(parts)-1] {
		next := make(map[rdf.ID]bool)
		for n := range frontier {
			e.from(n, part, func(m rdf.ID) bool { next[m] = true; return true })
		}
		frontier = next
		if len(frontier) == 0 {
			return true
		}
	}
	for n := range frontier {
		if !e.from(n, parts[len(parts)-1], yield) {
			return false
		}
	}
	return true
}

// closure is BFS reachability via the inner path: reflexive for '*'.
func (e *pathEval) closure(start rdf.ID, inner sparql.PathExpr, reflexive bool, yield func(rdf.ID) bool) bool {
	visited := make(map[rdf.ID]bool)
	var queue []rdf.ID
	// step yields n if new and enqueues it; it returns false on stop.
	step := func(n rdf.ID) bool {
		if visited[n] {
			return true
		}
		visited[n] = true
		queue = append(queue, n)
		return yield(n)
	}
	if reflexive {
		if !step(start) {
			return false
		}
	} else {
		// '+': seed with one step; the start node is only a result if
		// re-reached through the closure.
		if !e.from(start, inner, step) {
			return false
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !e.from(cur, inner, step) {
			return false
		}
	}
	return true
}

// negFrom implements the W3C negated-property-set semantics: forward
// members of the set exclude forward edges; inverse members exclude
// reverse edges. Forward edges are traversed only when the set has
// forward members (or no inverse members at all, covering !() and the
// plain !a form); reverse edges only when it has inverse members.
func (e *pathEval) negFrom(start rdf.ID, set []sparql.PathExpr, yield func(rdf.ID) bool) bool {
	excluded := make(map[rdf.ID]bool)
	excludedInv := make(map[rdf.ID]bool)
	var hasForward, hasInverse bool
	for _, x := range set {
		switch n := x.(type) {
		case *sparql.PathIRI:
			hasForward = true
			if pid, ok := e.resolve(n.IRI); ok {
				excluded[pid] = true
			}
		case *sparql.PathInverse:
			if iri, ok := n.X.(*sparql.PathIRI); ok {
				hasInverse = true
				if pid, ok := e.resolve(iri.IRI); ok {
					excludedInv[pid] = true
				}
			}
		}
	}
	if hasForward || !hasInverse {
		preds, objs := e.sn.SubjectEdges(start)
		for i := range preds {
			if !excluded[preds[i]] {
				if !yield(objs[i]) {
					return false
				}
			}
		}
	}
	if hasInverse {
		subs, preds := e.sn.ObjectEdges(start)
		for i := range subs {
			if !excludedInv[preds[i]] {
				if !yield(subs[i]) {
					return false
				}
			}
		}
	}
	return true
}
