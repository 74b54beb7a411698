package engine

import (
	"context"
	"errors"
	"time"

	"sparqlog/internal/rdf"
)

// RelationalEngine is the PostgreSQL stand-in: the query is executed as a
// left-deep sequence of hash joins over a single triples(s,p,o) relation,
// in the atoms' syntactic order, with every intermediate relation fully
// materialized. MaxRows bounds materialization (a memory guard counted as
// a timeout, the way an exhausted database would be).
type RelationalEngine struct {
	// MaxRows caps any intermediate relation; 0 means DefaultMaxRows.
	MaxRows int
}

// DefaultMaxRows bounds intermediate materialization.
const DefaultMaxRows = 4_000_000

// Name identifies the engine in reports.
func (e *RelationalEngine) Name() string { return "PG" }

// relation is a materialized intermediate result: a schema of variable
// indexes and rows of concrete IDs.
type relation struct {
	vars []int
	rows [][]rdf.ID
}

func (r *relation) colOf(v int) int {
	for i, x := range r.vars {
		if x == v {
			return i
		}
	}
	return -1
}

// Execute runs the query within a timeout; timed-out queries report the
// full timeout as their duration, as Figure 3 counts them.
func (e *RelationalEngine) Execute(sn *rdf.Snapshot, q CQ, timeout time.Duration) Result {
	return executeWithTimeout(e, sn, q, timeout)
}

// ExecuteContext runs the left-deep hash-join pipeline under the
// context's deadline, materializing every intermediate (the SQL SELECT
// plan of the paper's setup, ASK queries included).
func (e *RelationalEngine) ExecuteContext(ctx context.Context, sn *rdf.Snapshot, q CQ) Result {
	start := time.Now()
	tk := newTicker(ctx)
	maxRows := e.MaxRows
	if maxRows <= 0 {
		maxRows = DefaultMaxRows
	}
	cur := &relation{}
	cur.rows = [][]rdf.ID{{}} // unit relation
	var err error
	for _, atom := range q.Atoms {
		cur, err = joinAtom(sn, cur, atom, &tk, maxRows)
		if err != nil {
			break
		}
		if len(cur.rows) == 0 {
			break
		}
	}
	res := Result{Duration: time.Since(start)}
	if err != nil {
		res.TimedOut = true
		return res
	}
	res.Count = int64(len(cur.rows))
	return res
}

// joinAtom scans the triples matching the atom's constants and hash-joins
// them with the current relation on the shared variables.
func joinAtom(sn *rdf.Snapshot, cur *relation, atom Atom, tk *ticker, maxRows int) (*relation, error) {
	// Columns the atom shares with cur, and new columns it introduces.
	type pos struct {
		ref TermRef
		col int // column in cur, or -1
	}
	ps := [3]pos{{ref: atom.S}, {ref: atom.P}, {ref: atom.O}}
	var newVars []int
	seenNew := map[int]int{}
	for i := range ps {
		if !ps[i].ref.IsVar {
			ps[i].col = -1
			continue
		}
		ps[i].col = cur.colOf(ps[i].ref.Var)
		if ps[i].col == -1 {
			if _, dup := seenNew[ps[i].ref.Var]; !dup {
				seenNew[ps[i].ref.Var] = len(cur.vars) + len(newVars)
				newVars = append(newVars, ps[i].ref.Var)
			}
		}
	}
	out := &relation{vars: append(append([]int{}, cur.vars...), newVars...)}

	// Build a hash table on the join key over the smaller side: we always
	// hash the scan side keyed by shared-variable values, then probe with
	// cur rows (modelling a hash join without optimizer statistics).
	type key [3]int64
	makeKeyFromTriple := func(t rdf.Triple) (key, bool) {
		var k key
		vals := [3]rdf.ID{t.S, t.P, t.O}
		for i := range ps {
			k[i] = -1
			if !ps[i].ref.IsVar {
				if ps[i].ref.ID != vals[i] {
					return k, false
				}
				continue
			}
			if ps[i].col >= 0 {
				k[i] = int64(vals[i])
			}
		}
		// Repeated variables within the atom must agree.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if ps[i].ref.IsVar && ps[j].ref.IsVar && ps[i].ref.Var == ps[j].ref.Var && vals[i] != vals[j] {
					return k, false
				}
			}
		}
		return k, true
	}
	// Candidate triples: restrict by constant predicate when available
	// (the relational engine's single index), else scan the relation.
	ht := make(map[key][]rdf.Triple)
	err := scan(sn, atom.P.ID, !atom.P.IsVar, tk, func(s, p, o rdf.ID) error {
		t := rdf.Triple{S: s, P: p, O: o}
		if k, ok := makeKeyFromTriple(t); ok {
			ht[k] = append(ht[k], t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range cur.rows {
		if err := tk.check(1023); err != nil {
			return nil, err
		}
		var k key
		for i := range ps {
			k[i] = -1
			if ps[i].ref.IsVar && ps[i].col >= 0 {
				k[i] = int64(row[ps[i].col])
			}
		}
		for _, t := range ht[k] {
			vals := [3]rdf.ID{t.S, t.P, t.O}
			newRow := make([]rdf.ID, len(out.vars))
			copy(newRow, row)
			// Repeated variables within the atom were already checked by
			// makeKeyFromTriple, so plain assignment is safe.
			for i := range ps {
				if ps[i].ref.IsVar && ps[i].col == -1 {
					newRow[seenNew[ps[i].ref.Var]] = vals[i]
				}
			}
			out.rows = append(out.rows, newRow)
			if len(out.rows) > maxRows {
				return nil, errMemory
			}
		}
	}
	return out, nil
}

// errMemory marks the materialization cap; reported as a timeout.
var errMemory = errors.New("engine: materialization cap exceeded")
