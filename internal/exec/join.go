package exec

import (
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
)

// joinOp is the index nested-loop join on one planned atom: per input
// row it enumerates the snapshot triples matching the atom under the
// row's bindings, choosing the cheapest index from the bound pattern,
// and appends the matches column-wise — a posting-list copy into the
// newly bound column(s) plus replication of the carried columns, no
// per-row maps or closures. A variable's TermRef.Var is its schema
// slot; an atom constant absent from the dictionary (plan.C(^0)) hits
// no index row and yields nothing, as do slots bound to Pool overflow
// IDs, reproducing the legacy "term unknown to the store" semantics.
type joinOp struct {
	base
	sn   *rdf.Snapshot
	in   Operator
	atom plan.Atom

	// Repeated-variable structure, precomputed. A repeat involving a
	// position that resolves bound forces the other bound too (same
	// slot), so these only matter in the scan cases below.
	spSame, soSame, poSame bool

	rowsCum int

	cur    *Batch
	curRow int

	// scratch columns for scan enumerations.
	scrS, scrP, scrO []rdf.ID
}

// NewJoin returns the index join for atom over sn. Its cumulative
// output counts against Ctx.MaxRows (the evaluator's intermediate bound).
func NewJoin(sn *rdf.Snapshot, in Operator, atom plan.Atom) Operator {
	j := &joinOp{base: newBase(slotsOf(in)), sn: sn, in: in, atom: atom}
	s, p, o := atom.S, atom.P, atom.O
	j.spSame = s.IsVar && p.IsVar && s.Var == p.Var
	j.soSame = s.IsVar && o.IsVar && s.Var == o.Var
	j.poSame = p.IsVar && o.IsVar && p.Var == o.Var
	return j
}

func (j *joinOp) Reset() {
	j.in.Reset()
	j.rowsCum, j.cur, j.curRow = 0, nil, 0
}

func (j *joinOp) Next(c *Ctx) (*Batch, error) {
	for {
		if j.cur == nil || j.curRow >= j.cur.Rows() {
			in, err := j.in.Next(c)
			if err != nil {
				return nil, err
			}
			if in == nil {
				return nil, nil
			}
			j.cur, j.curRow = in, 0
		}
		j.out.Reset()
		for j.curRow < j.cur.Rows() && !j.out.Full() {
			if err := c.Check(255); err != nil {
				return nil, err
			}
			if err := j.processRow(c, j.cur, j.curRow); err != nil {
				return nil, err
			}
			j.curRow++
			if c.MaxRows > 0 && j.rowsCum+j.out.Rows() > c.MaxRows {
				return nil, ErrRowLimit
			}
		}
		j.rowsCum += j.out.Rows()
		if b := j.emit(); b != nil {
			return b, nil
		}
	}
}

// resolve returns the concrete value of a term ref under the row,
// ok=false for an unbound variable slot.
func resolve(r plan.TermRef, in *Batch, row int) (rdf.ID, bool) {
	if !r.IsVar {
		return r.ID, true
	}
	if v := in.Get(r.Var, row); v != Unbound {
		return v, true
	}
	return 0, false
}

// processRow appends the matches of the atom under row to j.out.
func (j *joinOp) processRow(c *Ctx, in *Batch, row int) error {
	a := j.atom
	s, sb := resolve(a.S, in, row)
	p, pb := resolve(a.P, in, row)
	o, ob := resolve(a.O, in, row)
	sn := j.sn
	noslot := [3]int{-1, -1, -1}
	c.Probes++ // every branch below is exactly one index access
	switch {
	case sb && pb && ob:
		// Repeated-variable agreement is automatic: equal slots
		// resolve to equal values.
		if sn.Has(s, p, o) {
			j.out.AppendRow(in, row)
		}
	case sb && pb:
		objs := sn.Objects(s, p)
		if len(objs) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.O.IsVar {
			slots[2], vals[2] = a.O.Var, objs
		}
		j.out.AppendFanout(in, row, len(objs), slots, vals)
	case pb && ob:
		subs := sn.Subjects(p, o)
		if len(subs) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.S.IsVar {
			slots[0], vals[0] = a.S.Var, subs
		}
		j.out.AppendFanout(in, row, len(subs), slots, vals)
	case sb && ob:
		preds := sn.Predicates(s, o)
		if len(preds) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.P.IsVar {
			slots[1], vals[1] = a.P.Var, preds
		}
		j.out.AppendFanout(in, row, len(preds), slots, vals)
	case pb:
		j.scrS, j.scrO = j.scrS[:0], j.scrO[:0]
		for _, t := range sn.ScanPredicate(p) {
			if err := c.Check(4095); err != nil {
				return err
			}
			if j.soSame && t.S != t.O {
				continue
			}
			j.scrS = append(j.scrS, t.S)
			j.scrO = append(j.scrO, t.O)
		}
		if len(j.scrS) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.S.IsVar {
			slots[0], vals[0] = a.S.Var, j.scrS
		}
		if a.O.IsVar {
			slots[2], vals[2] = a.O.Var, j.scrO
		}
		j.out.AppendFanout(in, row, len(j.scrS), slots, vals)
	case sb:
		preds, objs := sn.SubjectEdges(s)
		if len(preds) == 0 {
			return nil
		}
		if j.poSame {
			j.scrP, j.scrO = j.scrP[:0], j.scrO[:0]
			for i := range preds {
				if preds[i] == objs[i] {
					j.scrP = append(j.scrP, preds[i])
					j.scrO = append(j.scrO, objs[i])
				}
			}
			preds, objs = j.scrP, j.scrO
			if len(preds) == 0 {
				return nil
			}
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.P.IsVar {
			slots[1], vals[1] = a.P.Var, preds
		}
		if a.O.IsVar {
			slots[2], vals[2] = a.O.Var, objs
		}
		j.out.AppendFanout(in, row, len(preds), slots, vals)
	case ob:
		subs, preds := sn.ObjectEdges(o)
		if len(subs) == 0 {
			return nil
		}
		if j.spSame {
			j.scrS, j.scrP = j.scrS[:0], j.scrP[:0]
			for i := range subs {
				if subs[i] == preds[i] {
					j.scrS = append(j.scrS, subs[i])
					j.scrP = append(j.scrP, preds[i])
				}
			}
			subs, preds = j.scrS, j.scrP
			if len(subs) == 0 {
				return nil
			}
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.S.IsVar {
			slots[0], vals[0] = a.S.Var, subs
		}
		if a.P.IsVar {
			slots[1], vals[1] = a.P.Var, preds
		}
		j.out.AppendFanout(in, row, len(subs), slots, vals)
	default:
		j.scrS, j.scrP, j.scrO = j.scrS[:0], j.scrP[:0], j.scrO[:0]
		for _, t := range sn.Triples() {
			if err := c.Check(4095); err != nil {
				return err
			}
			if j.spSame && t.S != t.P || j.soSame && t.S != t.O || j.poSame && t.P != t.O {
				continue
			}
			j.scrS = append(j.scrS, t.S)
			j.scrP = append(j.scrP, t.P)
			j.scrO = append(j.scrO, t.O)
		}
		if len(j.scrS) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		if a.S.IsVar {
			slots[0], vals[0] = a.S.Var, j.scrS
		}
		if a.P.IsVar {
			slots[1], vals[1] = a.P.Var, j.scrP
		}
		if a.O.IsVar {
			slots[2], vals[2] = a.O.Var, j.scrO
		}
		j.out.AppendFanout(in, row, len(j.scrS), slots, vals)
	}
	return nil
}
