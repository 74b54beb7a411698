// Package engine reproduces the systems experiment of Section 5.1
// (Figure 3) and nothing else: two deliberately contrasting
// conjunctive-query engines over immutable rdf.Snapshots, a graph-native
// engine in the role of Blazegraph (BG) and a relational engine in the
// role of PostgreSQL over a triples table (PG), raced on gMark chain and
// cycle workloads by Figure3. No SPARQL query a binary serves runs here:
// those run on the columnar executor (internal/eval, internal/exec).
//
// GraphEngine performs index nested-loop joins in the order chosen by
// the statistics-driven cost-based planner (internal/plan, computed once
// per query from the snapshot's Freeze-time statistics) and
// short-circuits ASK queries at the first result — cheap index-driven
// traversal, the behaviour that keeps cycle queries tractable on graph
// engines.
//
// RelationalEngine executes a left-deep pipeline of hash joins in the
// query's syntactic order, fully materializing every intermediate result
// before the next join, with no structure-aware reordering and no ASK
// short-circuit. Cyclic queries keep both endpoints of the growing path in
// the intermediate relation and only prune at the closing join, which is
// what drives the paper's observed PostgreSQL timeouts on cycles. Being
// order-independent, it is also the reference the planned graph engine
// is checked against.
//
// Both engines are stateless between calls and read only the immutable
// snapshot, so one snapshot can serve any number of concurrent Execute /
// ExecuteContext calls.
package engine

import (
	"context"
	"errors"
	"time"

	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
)

// TermRef is one position of a query atom: either a variable (index into
// the query's variable table) or a constant store ID. The representation
// is owned by the planner; the alias keeps the engines' historical API.
type TermRef = plan.TermRef

// V constructs a variable reference.
func V(i int) TermRef { return plan.V(i) }

// C constructs a constant reference.
func C(id rdf.ID) TermRef { return plan.C(id) }

// Atom is one triple pattern of a conjunctive query.
type Atom = plan.Atom

// CQ is a conjunctive query over a store.
type CQ = plan.CQ

// Result reports one query execution.
type Result struct {
	// Count is the number of result bindings (1/0 for Ask on the graph
	// engine).
	Count int64
	// TimedOut indicates the deadline struck (or the context was
	// cancelled) before completion.
	TimedOut bool
	Duration time.Duration
}

// Engine executes conjunctive queries against a snapshot. Implementations
// must be safe for concurrent use: all mutable execution state lives in
// per-call structures.
type Engine interface {
	Name() string
	// Execute runs the query with a per-query timeout; timed-out queries
	// report Duration equal to the full timeout, as Figure 3 counts them.
	Execute(sn *rdf.Snapshot, q CQ, timeout time.Duration) Result
	// ExecuteContext runs the query under the context's deadline and
	// cancellation; on timeout the Duration is the elapsed wall time.
	ExecuteContext(ctx context.Context, sn *rdf.Snapshot, q CQ) Result
}

// errTimeout aborts execution internally.
var errTimeout = errors.New("engine: timeout")

// executeWithTimeout adapts ExecuteContext to the timeout-based Execute
// contract: timed-out queries report the full timeout as their duration,
// the way Figure 3 counts them.
func executeWithTimeout(e Engine, sn *rdf.Snapshot, q CQ, timeout time.Duration) Result {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res := e.ExecuteContext(ctx, sn, q)
	if res.TimedOut {
		res.Duration = timeout
	}
	return res
}

const unbound = int64(-1)

// ticker periodically checks the context deadline and cancellation from
// tight evaluation loops. The check runs every mask+1 steps (mask must be
// a power of two minus one) to keep time.Now out of the inner loop.
type ticker struct {
	ctx      context.Context
	deadline time.Time
	hasDL    bool
	steps    int
}

func newTicker(ctx context.Context) ticker {
	dl, ok := ctx.Deadline()
	return ticker{ctx: ctx, deadline: dl, hasDL: ok}
}

func (tk *ticker) check(mask int) error {
	tk.steps++
	if tk.steps&mask != 0 {
		return nil
	}
	if tk.hasDL && time.Now().After(tk.deadline) {
		return errTimeout
	}
	if tk.ctx.Err() != nil {
		return errTimeout
	}
	return nil
}

// ---------- Graph engine ----------

// GraphEngine is the Blazegraph stand-in: index nested-loop joins over the
// snapshot's SPO/POS/OSP indexes, in the cost-based planner's order.
type GraphEngine struct{}

// Name identifies the engine in reports.
func (e *GraphEngine) Name() string { return "BG" }

// Execute runs the query with backtracking search within a timeout.
func (e *GraphEngine) Execute(sn *rdf.Snapshot, q CQ, timeout time.Duration) Result {
	return executeWithTimeout(e, sn, q, timeout)
}

// ExecuteContext runs the query under the context's deadline with the
// depth-first backtracking search: its dense []int64 slot scratch
// materializes nothing when only a count is needed.
func (e *GraphEngine) ExecuteContext(ctx context.Context, sn *rdf.Snapshot, q CQ) Result {
	start := time.Now()
	ex := &graphExec{
		sn:       sn,
		q:        q,
		order:    plan.For(sn, q.Atoms, q.NumVars).Order,
		bindings: make([]int64, q.NumVars),
		tk:       newTicker(ctx),
	}
	for i := range ex.bindings {
		ex.bindings[i] = unbound
	}
	err := ex.search(0)
	return Result{Count: ex.count, TimedOut: errors.Is(err, errTimeout), Duration: time.Since(start)}
}

type graphExec struct {
	sn       *rdf.Snapshot
	q        CQ
	order    []int // atom execution order (a permutation of atom indexes)
	bindings []int64
	count    int64
	tk       ticker
}

// errDone stops the search after the first result for ASK queries.
var errDone = errors.New("engine: done")

func (ex *graphExec) search(depth int) error {
	if err := ex.tk.check(1023); err != nil {
		return err
	}
	if depth == len(ex.q.Atoms) {
		ex.count++
		if ex.q.Ask {
			return errDone
		}
		return nil
	}
	atom := ex.q.Atoms[ex.order[depth]]
	err := ex.enumerate(atom, func(s, p, o rdf.ID) error {
		var setVars [3]int
		n := 0
		bind := func(ref TermRef, val rdf.ID) bool {
			if !ref.IsVar {
				return ref.ID == val
			}
			if cur := ex.bindings[ref.Var]; cur != unbound {
				return cur == int64(val)
			}
			ex.bindings[ref.Var] = int64(val)
			setVars[n] = ref.Var
			n++
			return true
		}
		ok := bind(atom.S, s) && bind(atom.P, p) && bind(atom.O, o)
		var err error
		if ok {
			err = ex.search(depth + 1)
		}
		for i := 0; i < n; i++ {
			ex.bindings[setVars[i]] = unbound
		}
		return err
	})
	return err
}

// resolve returns the concrete value of a term ref under current bindings,
// with ok=false for unbound variables.
func (ex *graphExec) resolve(r TermRef) (rdf.ID, bool) {
	if !r.IsVar {
		return r.ID, true
	}
	if v := ex.bindings[r.Var]; v != unbound {
		return rdf.ID(v), true
	}
	return 0, false
}

// enumerate yields the triples matching the atom under current bindings
// using the cheapest available index.
func (ex *graphExec) enumerate(a Atom, yield func(s, p, o rdf.ID) error) error {
	s, sb := ex.resolve(a.S)
	p, pb := ex.resolve(a.P)
	o, ob := ex.resolve(a.O)
	sn := ex.sn
	switch {
	case sb && pb && ob:
		if sn.Has(s, p, o) {
			return yield(s, p, o)
		}
		return nil
	case sb && pb:
		for _, obj := range sn.Objects(s, p) {
			if err := yield(s, p, obj); err != nil {
				return err
			}
		}
		return nil
	case pb && ob:
		for _, sub := range sn.Subjects(p, o) {
			if err := yield(sub, p, o); err != nil {
				return err
			}
		}
		return nil
	case sb && ob:
		for _, pred := range sn.Predicates(s, o) {
			if err := yield(s, pred, o); err != nil {
				return err
			}
		}
		return nil
	case pb:
		return scan(sn, p, true, &ex.tk, yield)
	case sb:
		// Subject-only: the SPO index holds the subject's full edge list;
		// no need to scan the store.
		preds, objs := sn.SubjectEdges(s)
		for i := range preds {
			if err := ex.tk.check(1023); err != nil {
				return err
			}
			if err := yield(s, preds[i], objs[i]); err != nil {
				return err
			}
		}
		return nil
	case ob:
		// Object-only: symmetric via the OSP index.
		subs, preds := sn.ObjectEdges(o)
		for i := range subs {
			if err := ex.tk.check(1023); err != nil {
				return err
			}
			if err := yield(subs[i], preds[i], o); err != nil {
				return err
			}
		}
		return nil
	default:
		return scan(sn, 0, false, &ex.tk, yield)
	}
}

// scan yields the triples with predicate p, read off its POS row, or,
// when p is not bound, every triple, read off the SPO rows.
func scan(sn *rdf.Snapshot, p rdf.ID, pb bool, tk *ticker, yield func(s, p, o rdf.ID) error) error {
	if pb {
		objs, subs := sn.PredicateEdges(p)
		for i := range subs {
			if err := tk.check(1023); err != nil {
				return err
			}
			if err := yield(subs[i], p, objs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for s := range rdf.ID(sn.NumTerms()) {
		preds, objs := sn.SubjectEdges(s)
		for i := range preds {
			if err := tk.check(1023); err != nil {
				return err
			}
			if err := yield(s, preds[i], objs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
