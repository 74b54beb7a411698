package pathcomp

import (
	"math/bits"

	"sparqlog/internal/rdf"
)

// item is one product-graph node: an automaton state paired with a
// graph node. The queue of items doubles as the trace used to clear
// scratch bitsets between multi-source sweeps.
type item struct {
	q int32
	n rdf.ID
}

// runner is the per-evaluation state of the product-graph search: one
// visited bitset per automaton state (the semi-naive frontier — a
// (state, node) pair is expanded exactly once), plus the set of nodes
// reached in an accepting state.
type runner struct {
	pa      *Path
	a       *nfa
	visited []rdf.Bitset
	queue   []item
	reached rdf.Bitset
	out     []rdf.ID
}

func newRunner(pa *Path, a *nfa) *runner {
	r := &runner{pa: pa, a: a}
	r.visited = make([]rdf.Bitset, len(a.edges))
	for i := range r.visited {
		r.visited[i] = pa.sn.NewBitset()
	}
	r.reached = pa.sn.NewBitset()
	return r
}

// getRunner takes a reset runner for the given direction from the
// Path's pool, or builds one. Return it with putRunner when done (the
// result slice must be copied out first — reset empties it).
func (pa *Path) getRunner(reverse bool) *runner {
	pool := &pa.fwdPool
	if reverse {
		pool = &pa.revPool
	}
	if v := pool.Get(); v != nil {
		return v.(*runner)
	}
	a := pa.fwd
	if reverse {
		a = pa.rev
	}
	return newRunner(pa, a)
}

func (pa *Path) putRunner(reverse bool, r *runner) {
	r.reset()
	if reverse {
		pa.revPool.Put(r)
	} else {
		pa.fwdPool.Put(r)
	}
}

// getScratch takes a cleared closure scratch from the pool; return it
// with putScratch (which replays out to clear the visited bitset, so
// callers must not hold onto out).
func (pa *Path) getScratch() *closureScratch {
	if v := pa.scPool.Get(); v != nil {
		return v.(*closureScratch)
	}
	return &closureScratch{visited: pa.sn.NewBitset()}
}

func (pa *Path) putScratch(sc *closureScratch) {
	sc.clear()
	pa.scPool.Put(sc)
}

// reset clears the scratch state in time proportional to what the last
// run touched, so a multi-source sweep does not pay O(terms) per source.
func (r *runner) reset() {
	for _, it := range r.queue {
		r.visited[it.q].Unset(it.n)
	}
	for _, n := range r.out {
		r.reached.Unset(n)
	}
	r.queue = r.queue[:0]
	r.out = r.out[:0]
}

// visit records the product node (q, n) if new; it reports true when n
// is the search target and was just reached in an accepting state.
func (r *runner) visit(q int32, n rdf.ID, target rdf.ID, hasTarget bool) bool {
	if !r.visited[q].Set(n) {
		return false
	}
	r.queue = append(r.queue, item{q, n})
	if r.a.accept[q] && r.reached.Set(n) {
		r.out = append(r.out, n)
		if hasTarget && n == target {
			return true
		}
	}
	return false
}

// run expands the product graph breadth-first from start. With a target
// it stops as soon as the target is reached in an accepting state and
// reports true (goal-directed early termination). chk is probed once
// per scanned edge, so cancellation lands within a bounded number of
// expansion steps even on skewed nodes.
func (r *runner) run(chk *ticker, start rdf.ID, target rdf.ID, hasTarget bool) (bool, error) {
	if r.visit(r.a.start, start, target, hasTarget) {
		return true, nil
	}
	sn := r.pa.sn
	for i := 0; i < len(r.queue); i++ {
		it := r.queue[i]
		for _, e := range r.a.edges[it.q] {
			switch e.kind {
			case opFwd:
				for _, m := range sn.Objects(it.n, e.pid) {
					if err := chk.tick(); err != nil {
						return false, err
					}
					if r.visit(e.to, m, target, hasTarget) {
						return true, nil
					}
				}
			case opInv:
				for _, m := range sn.Subjects(e.pid, it.n) {
					if err := chk.tick(); err != nil {
						return false, err
					}
					if r.visit(e.to, m, target, hasTarget) {
						return true, nil
					}
				}
			case opNegFwd:
				preds, objs := sn.SubjectEdges(it.n)
				for k := range preds {
					if err := chk.tick(); err != nil {
						return false, err
					}
					if !idIn(e.excl, preds[k]) {
						if r.visit(e.to, objs[k], target, hasTarget) {
							return true, nil
						}
					}
				}
			case opNegInv:
				subs, preds := sn.ObjectEdges(it.n)
				for k := range subs {
					if err := chk.tick(); err != nil {
						return false, err
					}
					if !idIn(e.excl, preds[k]) {
						if r.visit(e.to, subs[k], target, hasTarget) {
							return true, nil
						}
					}
				}
			}
		}
	}
	return false, nil
}

// idIn reports membership in a small sorted exclusion set.
func idIn(set []rdf.ID, id rdf.ID) bool {
	for _, x := range set {
		if x == id {
			return true
		}
		if x > id {
			return false
		}
	}
	return false
}

// closureScratch is the fast path's reusable state: one visited bitset
// and an explicit work stack, cleared by replaying the result list.
type closureScratch struct {
	visited rdf.Bitset
	stack   []rdf.ID
	out     []rdf.ID
}

// closureRun evaluates the fast-path closure (a*, a+, alt-star,
// alt-plus) from start, directly on the SPO/POS posting lists. flip
// evaluates the reversed path (for To); with a target it terminates as
// soon as the target is reached. The scratch's out holds the reached
// nodes in visit order on return.
func (pa *Path) closureRun(chk *ticker, sc *closureScratch, start rdf.ID, flip bool, target rdf.ID, hasTarget bool) (bool, error) {
	sn := pa.sn
	sc.stack = append(sc.stack[:0], start)
	sc.out = sc.out[:0]
	if pa.reflexive {
		if sc.visited.Set(start) {
			sc.out = append(sc.out, start)
			if hasTarget && start == target {
				return true, nil
			}
		}
	}
	for len(sc.stack) > 0 {
		n := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, at := range pa.atoms {
			var targets []rdf.ID
			if at.inv != flip {
				targets = sn.Subjects(at.pid, n)
			} else {
				targets = sn.Objects(n, at.pid)
			}
			for _, m := range targets {
				if err := chk.tick(); err != nil {
					return false, err
				}
				if sc.visited.Set(m) {
					sc.out = append(sc.out, m)
					sc.stack = append(sc.stack, m)
					if hasTarget && m == target {
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}

// clear resets the scratch by replaying the last run's results.
func (sc *closureScratch) clear() {
	for _, n := range sc.out {
		sc.visited.Unset(n)
	}
	sc.out = sc.out[:0]
}

// From returns the nodes reachable from start via the path, as a sorted
// ID slice.
func (pa *Path) From(start rdf.ID) []rdf.ID {
	out, _ := pa.FromCtx(nil, start)
	return out
}

// FromCtx is From with a cancellation probe: check (may be nil) is
// polled periodically from the search's inner loops, and its error
// aborts the evaluation (the partial result is discarded).
func (pa *Path) FromCtx(check Check, start rdf.ID) ([]rdf.ID, error) {
	return pa.endpointEval(check, start, false)
}

// To returns the nodes from which the path reaches end (the reverse
// image), as a sorted ID slice. Object-bound patterns evaluate this way
// instead of enumerating all pairs and filtering.
func (pa *Path) To(end rdf.ID) []rdf.ID {
	out, _ := pa.ToCtx(nil, end)
	return out
}

// ToCtx is To with a cancellation probe (see FromCtx).
func (pa *Path) ToCtx(check Check, end rdf.ID) ([]rdf.ID, error) {
	return pa.endpointEval(check, end, true)
}

func (pa *Path) endpointEval(check Check, start rdf.ID, reverse bool) ([]rdf.ID, error) {
	chk := &ticker{check: check}
	var out []rdf.ID
	if pa.closure {
		sc := pa.getScratch()
		_, err := pa.closureRun(chk, sc, start, reverse, 0, false)
		if err != nil {
			pa.putScratch(sc)
			return nil, err
		}
		out = append(out, sc.out...)
		pa.putScratch(sc)
	} else {
		r := pa.getRunner(reverse)
		if _, err := r.run(chk, start, 0, false); err != nil {
			pa.putRunner(reverse, r)
			return nil, err
		}
		out = append(out, r.out...)
		pa.putRunner(reverse, r)
	}
	sortIDs(out)
	return out, nil
}

// Holds reports whether the path connects s to o. The search runs from
// whichever end the snapshot statistics say expands less — forward from
// s or backward from o over the reversed automaton — and stops the
// moment the target is reached.
func (pa *Path) Holds(s, o rdf.ID) bool {
	found, _ := pa.HoldsCtx(nil, s, o)
	return found
}

// HoldsCtx is Holds with a cancellation probe (see FromCtx).
func (pa *Path) HoldsCtx(check Check, s, o rdf.ID) (bool, error) {
	chk := &ticker{check: check}
	reverse := pa.dirCost(o, true) < pa.dirCost(s, false)
	start, target := s, o
	if reverse {
		start, target = o, s
	}
	if pa.closure {
		sc := pa.getScratch()
		found, err := pa.closureRun(chk, sc, start, reverse, target, true)
		pa.putScratch(sc)
		return found, err
	}
	r := pa.getRunner(reverse)
	found, err := r.run(chk, start, target, true)
	pa.putRunner(reverse, r)
	return found, err
}

// Direction reports the end Holds would search from for the given
// endpoints ("forward" or "reverse"), for explain output.
func (pa *Path) Direction(s, o rdf.ID) string {
	if pa.dirCost(o, true) < pa.dirCost(s, false) {
		return "reverse"
	}
	return "forward"
}

// dirCost estimates the two-step expansion cost of starting at node:
// the node's exact first-step degree under the automaton's initial
// labels, times the statistics' average continuation fan-out. Lower
// means the rarer end.
func (pa *Path) dirCost(node rdf.ID, reverse bool) float64 {
	sn := pa.sn
	st := sn.Stats()
	globalFwd := avg(st.Triples, st.DistinctSubjects)
	globalInv := avg(st.Triples, st.DistinctObjects)
	cost := 0.0
	add := func(kind opKind, pid rdf.ID) {
		switch kind {
		case opFwd:
			ps := st.Predicate(pid)
			cost += float64(len(sn.Objects(node, pid))) * (1 + avg(int(ps.Card), int(ps.Subjects)))
		case opInv:
			ps := st.Predicate(pid)
			cost += float64(len(sn.Subjects(pid, node))) * (1 + avg(int(ps.Card), int(ps.Objects)))
		case opNegFwd:
			cost += float64(sn.SubjectDegree(node)) * (1 + globalFwd)
		case opNegInv:
			cost += float64(sn.ObjectDegree(node)) * (1 + globalInv)
		}
	}
	if pa.closure {
		for _, at := range pa.atoms {
			kind := opFwd
			if at.inv != reverse {
				kind = opInv
			}
			add(kind, at.pid)
		}
		return cost
	}
	a := pa.fwd
	if reverse {
		a = pa.rev
	}
	for _, e := range a.edges[a.start] {
		add(e.kind, e.pid)
	}
	return cost
}

func avg(num, den int) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// adjacency is a materialized edge list (CSR) for the closure fast
// path's multi-source sweep: the union of all closure atoms' edges,
// addressed by source node. Building it costs one pass over the
// relevant posting lists; afterwards every expansion is a plain slice
// walk instead of a per-node binary search.
type adjacency struct {
	off []uint32
	dst []rdf.ID
}

// closureAdjacency merges the closure atoms into one forward adjacency.
func (pa *Path) closureAdjacency(chk *ticker) (*adjacency, error) {
	sn := pa.sn
	nTerms := sn.NumTerms()
	ad := &adjacency{off: make([]uint32, nTerms+1)}
	for _, at := range pa.atoms {
		objs, subs := sn.PredicateEdges(at.pid)
		srcs := subs
		if at.inv {
			srcs = objs
		}
		for _, src := range srcs {
			if err := chk.tick(); err != nil {
				return nil, err
			}
			ad.off[src+1]++
		}
	}
	for k := 1; k <= nTerms; k++ {
		ad.off[k] += ad.off[k-1]
	}
	ad.dst = make([]rdf.ID, ad.off[nTerms])
	fill := append([]uint32(nil), ad.off...)
	for _, at := range pa.atoms {
		objs, subs := sn.PredicateEdges(at.pid)
		srcs, dsts := subs, objs
		if at.inv {
			srcs, dsts = objs, subs
		}
		for i, src := range srcs {
			if err := chk.tick(); err != nil {
				return nil, err
			}
			ad.dst[fill[src]] = dsts[i]
			fill[src]++
		}
	}
	return ad, nil
}

// closureSweep runs the fast-path closure from start over the
// materialized adjacency. Results are the set bits of sc.visited on
// return; the returned word range [lo, hi] bounds where they live, so
// the caller can extract (already sorted) and clear in one pass over
// only the touched words.
func (pa *Path) closureSweep(chk *ticker, ad *adjacency, sc *closureScratch, start rdf.ID) (lo, hi int, err error) {
	lo, hi = len(sc.visited), -1
	mark := func(m rdf.ID) bool {
		if !sc.visited.Set(m) {
			return false
		}
		if w := int(m >> 6); w < lo {
			lo = w
		}
		if w := int(m >> 6); w > hi {
			hi = w
		}
		return true
	}
	sc.stack = append(sc.stack[:0], start)
	if pa.reflexive {
		mark(start)
	}
	for len(sc.stack) > 0 {
		n := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, m := range ad.dst[ad.off[n]:ad.off[n+1]] {
			if err := chk.tick(); err != nil {
				return lo, hi, err
			}
			if mark(m) {
				sc.stack = append(sc.stack, m)
			}
		}
	}
	return lo, hi, nil
}

// tarjanSCC computes the strongly connected components of the
// adjacency over nodes [0, n), iteratively (no recursion, so graph
// depth cannot overflow the stack). Component IDs come out in reverse
// topological order: every component a node can step into has a
// smaller ID than its own, so a single pass over IDs 0..C-1 sees
// successors before predecessors.
func tarjanSCC(chk *ticker, ad *adjacency, n int) (comp []int32, members [][]rdf.ID, err error) {
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n) // 0 = unvisited, else discovery index + 1
	low := make([]int32, n)
	onStack := make([]bool, n)
	var tstack []rdf.ID
	type frame struct {
		v  rdf.ID
		ei uint32
	}
	var cs []frame
	var idx int32
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		idx++
		index[root], low[root] = idx, idx
		tstack = append(tstack, rdf.ID(root))
		onStack[root] = true
		cs = append(cs[:0], frame{rdf.ID(root), ad.off[root]})
		for len(cs) > 0 {
			if err := chk.tick(); err != nil {
				return nil, nil, err
			}
			f := &cs[len(cs)-1]
			if f.ei < ad.off[f.v+1] {
				w := ad.dst[f.ei]
				f.ei++
				if index[w] == 0 {
					idx++
					index[w], low[w] = idx, idx
					tstack = append(tstack, w)
					onStack[w] = true
					cs = append(cs, frame{w, ad.off[w]})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			cs = cs[:len(cs)-1]
			if len(cs) > 0 {
				if p := cs[len(cs)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				cid := int32(len(members))
				var ms []rdf.ID
				//ctxpoll:ignore bounded pop: drains the Tarjan stack down to v, and the enclosing frame loop ticks
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onStack[w] = false
					comp[w] = cid
					ms = append(ms, w)
					if w == v {
						break
					}
				}
				members = append(members, ms)
			}
		}
	}
	return comp, members, nil
}

// closurePairsAll enumerates every closure pair via SCC condensation:
// all nodes of a strongly connected component share one closure, so
// each component's reach list is computed once (successor components
// first — guaranteed by Tarjan's reverse-topological numbering) and
// every member source emits it verbatim. Memory is bounded by the
// output: each stored list is emitted at least once per member.
func (pa *Path) closurePairsAll(chk *ticker) ([][2]rdf.ID, error) {
	sn := pa.sn
	nTerms := sn.NumTerms()
	ad, err := pa.closureAdjacency(chk)
	if err != nil {
		return nil, err
	}
	comp, members, err := tarjanSCC(chk, ad, nTerms)
	if err != nil {
		return nil, err
	}
	closed := make([][]rdf.ID, len(members))
	scratch := rdf.NewBitset(nTerms)
	for c := 0; c < len(members); c++ {
		var acc []rdf.ID
		add := func(id rdf.ID) {
			if scratch.Set(id) {
				acc = append(acc, id)
			}
		}
		for _, m := range members[c] {
			add(m)
		}
		for _, m := range members[c] {
			for _, w := range ad.dst[ad.off[m]:ad.off[m+1]] {
				if err := chk.tick(); err != nil {
					return nil, err
				}
				if wc := comp[w]; int(wc) != c {
					for _, x := range closed[wc] {
						if err := chk.tick(); err != nil {
							return nil, err
						}
						add(x)
					}
				}
			}
		}
		for _, x := range acc {
			scratch.Unset(x)
		}
		sortIDs(acc)
		closed[c] = acc
	}

	var out [][2]rdf.ID
	var acc []rdf.ID
	for s := rdf.ID(0); int(s) < nTerms; s++ {
		if sn.SubjectDegree(s) == 0 && sn.ObjectDegree(s) == 0 {
			continue
		}
		c := comp[s]
		var reach []rdf.ID
		switch {
		case pa.reflexive, len(members[c]) > 1:
			// A multi-node component reaches its own closure even under
			// '+': every member sits on a cycle.
			reach = closed[c]
		default:
			// Singleton component under '+': the closure of the
			// successors (which includes s itself exactly when s has a
			// self-loop).
			acc = acc[:0]
			for _, w := range ad.dst[ad.off[s]:ad.off[s+1]] {
				for _, x := range closed[comp[w]] {
					if scratch.Set(x) {
						acc = append(acc, x)
					}
				}
			}
			for _, x := range acc {
				scratch.Unset(x)
			}
			sortIDs(acc)
			reach = acc
		}
		for _, o := range reach {
			if err := chk.tick(); err != nil {
				return nil, err
			}
			out = append(out, [2]rdf.ID{s, o})
		}
	}
	return out, nil
}

// Loops returns the sorted nodes the path connects to themselves — the
// solutions of `?x path ?x`. Closure paths answer structurally (every
// candidate under '*'; under '+', membership in a multi-node strongly
// connected component or a self-edge); the general automaton runs one
// goal-directed search per candidate over shared scratch. Either way
// the cost is one pass, not one allocation per node.
func (pa *Path) Loops() []rdf.ID {
	out, _ := pa.LoopsCtx(nil)
	return out
}

// LoopsCtx is Loops with a cancellation probe: check (may be nil) is
// polled every ~1k expansion steps, and its error aborts the sweep.
func (pa *Path) LoopsCtx(check Check) ([]rdf.ID, error) {
	chk := &ticker{check: check}
	sn := pa.sn
	nTerms := sn.NumTerms()
	var out []rdf.ID
	if pa.closure {
		var comp []int32
		var members [][]rdf.ID
		var ad *adjacency
		if !pa.reflexive {
			var err error
			ad, err = pa.closureAdjacency(chk)
			if err != nil {
				return nil, err
			}
			comp, members, err = tarjanSCC(chk, ad, nTerms)
			if err != nil {
				return nil, err
			}
		}
		for s := rdf.ID(0); int(s) < nTerms; s++ {
			if err := chk.tick(); err != nil {
				return nil, err
			}
			if sn.SubjectDegree(s) == 0 && sn.ObjectDegree(s) == 0 {
				continue
			}
			if pa.reflexive {
				out = append(out, s)
				continue
			}
			if len(members[comp[s]]) > 1 {
				out = append(out, s)
				continue
			}
			for _, w := range ad.dst[ad.off[s]:ad.off[s+1]] {
				if w == s {
					out = append(out, s)
					break
				}
			}
		}
		return out, nil
	}
	r := newRunner(pa, pa.fwd)
	for s := rdf.ID(0); int(s) < nTerms; s++ {
		if sn.SubjectDegree(s) == 0 && sn.ObjectDegree(s) == 0 {
			continue
		}
		r.reset()
		found, err := r.run(chk, s, s, true)
		if err != nil {
			return nil, err
		}
		if found {
			out = append(out, s)
		}
	}
	return out, nil
}

// Pairs enumerates the (subject, object) pairs connected by the path,
// up to limit pairs (0 = unlimited): a multi-source product-graph sweep
// over every node appearing in subject or object position, with scratch
// state shared across sources so each source costs only what it
// reaches. Closure fast paths materialize their edge set once; the
// unlimited enumeration additionally condenses it into strongly
// connected components so each component's closure is computed once and
// shared by all members. Pairs are ordered by subject ID, then object
// ID.
func (pa *Path) Pairs(limit int) [][2]rdf.ID {
	out, _ := pa.PairsCtx(nil, limit)
	return out
}

// PairsCtx is Pairs with a cancellation probe: check (may be nil) is
// polled every ~1k expansion steps, and its error aborts the sweep.
func (pa *Path) PairsCtx(check Check, limit int) ([][2]rdf.ID, error) {
	chk := &ticker{check: check}
	sn := pa.sn
	if pa.closure && limit <= 0 {
		return pa.closurePairsAll(chk)
	}
	var out [][2]rdf.ID
	var sc *closureScratch
	var ad *adjacency
	var r *runner
	if pa.closure {
		sc = &closureScratch{visited: sn.NewBitset()}
		var err error
		ad, err = pa.closureAdjacency(chk)
		if err != nil {
			return nil, err
		}
	} else {
		r = newRunner(pa, pa.fwd)
	}
	nTerms := rdf.ID(sn.NumTerms())
	var sorted []rdf.ID
	for s := rdf.ID(0); s < nTerms; s++ {
		if sn.SubjectDegree(s) == 0 && sn.ObjectDegree(s) == 0 {
			continue
		}
		if pa.closure {
			// Extract pairs straight off the visited bitset — ascending
			// by construction — clearing each word as it is consumed.
			lo, hi, err := pa.closureSweep(chk, ad, sc, s)
			if err != nil {
				return nil, err
			}
			for w := lo; w <= hi; w++ {
				word := sc.visited[w]
				sc.visited[w] = 0
				base := rdf.ID(w) << 6
				//ctxpoll:ignore bounded bit scan: at most 64 iterations per bitset word, and closureSweep ticked
				for word != 0 {
					o := base + rdf.ID(bits.TrailingZeros64(word))
					word &= word - 1
					out = append(out, [2]rdf.ID{s, o})
					if limit > 0 && len(out) >= limit {
						for ; w <= hi; w++ {
							sc.visited[w] = 0
						}
						return out, nil
					}
				}
			}
			continue
		}
		r.reset()
		if _, err := r.run(chk, s, 0, false); err != nil {
			return nil, err
		}
		sorted = append(sorted[:0], r.out...)
		sortIDs(sorted)
		for _, o := range sorted {
			out = append(out, [2]rdf.ID{s, o})
			if limit > 0 && len(out) >= limit {
				return out, nil
			}
		}
	}
	return out, nil
}
