// Package plan is the cost-based query planner. The SPARQL evaluator
// orders every run of triple patterns with it, and the Figure 3 graph
// engine (internal/engine) orders its conjunctive queries with it. It
// consumes the rdf.Stats block a Snapshot computes at Freeze time and
// orders the atoms of a conjunctive query by estimated cardinality:
// greedy minimum-selectivity with bound-variable propagation and a
// connected-subgraph preference (never take a cross product while a
// connected atom remains). The log study behind this repository found
// real workloads dominated by small star/chain/cycle conjunctive shapes,
// and a three-atom star plans in under a microsecond, so every query
// plans its own runs; nothing is cached.
//
// The planner owns the atom representation (TermRef, Atom, CQ); package
// engine aliases these types, so engine.Atom and plan.Atom are
// interchangeable.
package plan

import (
	"math"

	"sparqlog/internal/rdf"
)

// TermRef is one position of a query atom: either a variable (index
// into the query's variable table — which doubles as the columnar
// executor's slot index, so a plan over ID-resolved atoms executes
// with no name re-resolution) or a constant store ID.
type TermRef struct {
	IsVar bool
	Var   int
	ID    rdf.ID
}

// V constructs a variable reference.
func V(i int) TermRef { return TermRef{IsVar: true, Var: i} }

// C constructs a constant reference.
func C(id rdf.ID) TermRef { return TermRef{ID: id} }

// Atom is one triple pattern of a conjunctive query.
type Atom struct {
	S, P, O TermRef
}

// CQ is a conjunctive query over a store: the form gMark generates its
// workloads in and the Figure 3 engines execute.
type CQ struct {
	Atoms   []Atom
	NumVars int
	// Ask indicates existence semantics: engines that support
	// short-circuiting may stop at the first result.
	Ask bool
}

// Plan is an execution order for a set of atoms with the estimates that
// justified it.
type Plan struct {
	// Order holds atom indexes in execution order; it is a permutation
	// of [0, len(atoms)).
	Order []int
	// Est[k] is the estimated number of matches of atom Order[k] per row
	// of the intermediate result before it (its estimated fan-out).
	Est []float64
	// Rows[k] is the estimated intermediate result size after executing
	// atoms Order[0..k] (the running product of Est).
	Rows []float64
}

// Planner orders atoms using a snapshot's statistics.
type Planner struct {
	Stats *rdf.Stats
}

// For plans the atoms against a snapshot's Freeze-time statistics,
// with no variables initially bound.
func For(sn *rdf.Snapshot, atoms []Atom, numVars int) *Plan {
	return Planner{Stats: sn.Stats()}.PlanBound(atoms, numVars, nil)
}

// PlanBound orders the atoms given a set of variables already bound by
// the surrounding context (the evaluator's case: a BGP run inside a
// group whose earlier elements bound some variables).
func (pl Planner) PlanBound(atoms []Atom, numVars int, bound []bool) *Plan {
	n := len(atoms)
	bv := make([]bool, numVars)
	copy(bv, bound)
	used := make([]bool, n)
	p := &Plan{
		Order: make([]int, 0, n),
		Est:   make([]float64, 0, n),
		Rows:  make([]float64, 0, n),
	}
	rows := 1.0
	for step := 0; step < n; step++ {
		best, bestEst, bestConn := -1, 0.0, false
		for i := range atoms {
			if used[i] {
				continue
			}
			conn := connected(atoms[i], bv)
			est := pl.estimate(atoms[i], bv)
			switch {
			case best == -1:
			case conn && !bestConn:
			case conn == bestConn && est < bestEst:
			default:
				continue
			}
			best, bestEst, bestConn = i, est, conn
		}
		used[best] = true
		bindVars(atoms[best], bv)
		p.Order = append(p.Order, best)
		p.Est = append(p.Est, bestEst)
		rows *= bestEst
		p.Rows = append(p.Rows, rows)
	}
	return p
}

// connected reports whether the atom joins the already-bound subgraph: it
// shares a bound variable, or has no variables at all (a pure existence
// check that can never grow the intermediate result).
func connected(a Atom, bound []bool) bool {
	hasVar := false
	for _, r := range [3]TermRef{a.S, a.P, a.O} {
		if !r.IsVar {
			continue
		}
		hasVar = true
		if bound[r.Var] {
			return true
		}
	}
	return !hasVar
}

// bindVars marks the atom's variables bound.
func bindVars(a Atom, bound []bool) {
	for _, r := range [3]TermRef{a.S, a.P, a.O} {
		if r.IsVar {
			bound[r.Var] = true
		}
	}
}

// estimate predicts how many triples match the atom per row of the
// current intermediate result, treating bound variables like constants
// (their value is fixed at runtime, so average-degree statistics apply).
//
// With a constant predicate the per-predicate summary drives the
// estimate; with a variable predicate the global distinct counts stand
// in, assuming independence of the three positions. Constants in subject
// or object position contribute only their *position*, not their
// identity: per-constant degrees are not in the Freeze-time statistics,
// and the average degree of the position stands in for them.
func (pl Planner) estimate(a Atom, bound []bool) float64 {
	st := pl.Stats
	fixed := func(r TermRef) bool { return !r.IsVar || bound[r.Var] }
	sb, ob := fixed(a.S), fixed(a.O)

	var card, subjects, objects float64
	if !a.P.IsVar {
		ps := st.Predicate(a.P.ID)
		if ps.Card == 0 {
			return 0 // predicate absent: the atom cannot match
		}
		card = float64(ps.Card)
		subjects = float64(ps.Subjects)
		objects = float64(ps.Objects)
	} else {
		card = float64(st.Triples)
		subjects = math.Max(1, float64(st.DistinctSubjects))
		objects = math.Max(1, float64(st.DistinctObjects))
		if bound[a.P.Var] {
			card /= math.Max(1, float64(st.DistinctPredicates))
		}
	}
	est := card
	if sb {
		est /= subjects
	}
	if ob {
		est /= objects
	}
	// A repeated unbound variable inside the atom (e.g. ?x p ?x) only
	// matches self-loops; scale by the chance a random edge is one.
	if a.S.IsVar && a.O.IsVar && !sb && !ob && a.S.Var == a.O.Var {
		est /= math.Max(subjects, objects)
	}
	return est
}

// Deprecated: Cache is an empty type no code reads; every query plans
// its own runs. It remains only because the benchmark module (bench/)
// still names it; ROADMAP item 1(c) deletes it.
type Cache struct{}

// Deprecated: NewCache returns nil; see Cache.
func NewCache(*rdf.Snapshot) *Cache { return nil }
