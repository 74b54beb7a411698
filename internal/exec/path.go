package exec

import (
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/rdf"
)

// PathEnd is one endpoint of a path pattern: a variable slot or a
// constant ID (Unbound-as-constant marks a constant absent from the
// dictionary, which matches nothing).
type PathEnd struct {
	IsVar bool
	Slot  int
	ID    rdf.ID
}

// PathVar returns a variable endpoint on slot.
func PathVar(slot int) PathEnd { return PathEnd{IsVar: true, Slot: slot} }

// PathConst returns a constant endpoint; ok=false (a term missing from
// the dictionary) yields the impossible constant.
func PathConst(id rdf.ID, ok bool) PathEnd {
	if !ok {
		return PathEnd{ID: Unbound}
	}
	return PathEnd{ID: id}
}

// pathOp evaluates one compiled property path per input row. The
// compiled engine returns sorted []rdf.ID node sets, which are routed
// straight into the output columns — no string re-resolution of
// intermediate results; only projection pays for text.
type pathOp struct {
	base
	sn *rdf.Snapshot
	in Operator
	pa *pathcomp.Path
	s  PathEnd
	o  PathEnd

	// loops caches the binding-independent ?x path ?x node set.
	loops     []rdf.ID
	loopsDone bool

	// runs counts the input rows each evaluation kind served, for
	// explain.
	runs PathRuns

	rowsCum int
	cur     *Batch
	curRow  int
}

// NewPath returns the property-path operator (always row-capped: the
// legacy evaluator bounded path output by MaxRows).
func NewPath(sn *rdf.Snapshot, in Operator, pa *pathcomp.Path, s, o PathEnd) Operator {
	return &pathOp{base: newBase(slotsOf(in)), sn: sn, in: in, pa: pa, s: s, o: o}
}

func (p *pathOp) Reset() {
	p.in.Reset()
	p.rowsCum, p.cur, p.curRow = 0, nil, 0
}

func (p *pathOp) Next(c *Ctx) (*Batch, error) {
	for {
		if p.cur == nil || p.curRow >= p.cur.Rows() {
			in, err := p.in.Next(c)
			if err != nil {
				return nil, err
			}
			if in == nil {
				return nil, nil
			}
			p.cur, p.curRow = in, 0
		}
		p.out.Reset()
		for p.curRow < p.cur.Rows() && !p.out.Full() {
			if err := c.Check(63); err != nil {
				return nil, err
			}
			if err := p.processRow(c, p.cur, p.curRow); err != nil {
				return nil, err
			}
			p.curRow++
			if c.MaxRows > 0 && p.rowsCum+p.out.Rows() > c.MaxRows {
				return nil, ErrRowLimit
			}
		}
		p.rowsCum += p.out.Rows()
		if b := p.emit(); b != nil {
			return b, nil
		}
	}
}

// endState resolves an endpoint under the row: bound (with value) or a
// free slot.
func endState(e PathEnd, in *Batch, row int) (id rdf.ID, bound bool, slot int) {
	if !e.IsVar {
		return e.ID, true, -1
	}
	if v := in.Get(e.Slot, row); v != Unbound {
		return v, true, e.Slot
	}
	return 0, false, e.Slot
}

func (p *pathOp) processRow(c *Ctx, in *Batch, row int) error {
	sid, sBound, sSlot := endState(p.s, in, row)
	oid, oBound, oSlot := endState(p.o, in, row)
	noslot := [3]int{-1, -1, -1}
	// Thread the execution deadline into the compiled-path engine: its
	// closure and SCC sweeps batch their own probing (~1k steps), so a
	// cancelled request aborts mid-search instead of after it.
	check := pathcomp.Check(c.Poll)
	c.Probes++ // each branch below consults the compiled-path indexes once
	switch {
	case sBound && oBound:
		p.runs[PathHolds]++
		// A constant or binding outside the store (overflow or absent
		// term) can never satisfy a path.
		if p.inStore(sid) && p.inStore(oid) {
			holds, err := p.pa.HoldsCtx(check, sid, oid)
			if err != nil {
				return err
			}
			if holds {
				p.out.AppendRow(in, row)
			}
		}
	case sBound:
		p.runs[PathForward]++
		if !p.inStore(sid) {
			return nil
		}
		nodes, err := p.pa.FromCtx(check, sid)
		if err != nil {
			return err
		}
		if len(nodes) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		slots[0], vals[0] = oSlot, nodes
		p.out.AppendFanout(in, row, len(nodes), slots, vals)
	case oBound:
		p.runs[PathReverse]++
		if !p.inStore(oid) {
			return nil
		}
		nodes, err := p.pa.ToCtx(check, oid)
		if err != nil {
			return err
		}
		if len(nodes) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		slots[0], vals[0] = sSlot, nodes
		p.out.AppendFanout(in, row, len(nodes), slots, vals)
	case sSlot == oSlot:
		p.runs[PathLoops]++
		// Same variable on both ends: only loop nodes, computed once.
		if !p.loopsDone {
			loops, err := p.pa.LoopsCtx(check)
			if err != nil {
				return err
			}
			p.loops, p.loopsDone = loops, true
		}
		if len(p.loops) == 0 {
			return nil
		}
		slots, vals := noslot, [3][]rdf.ID{}
		slots[0], vals[0] = sSlot, p.loops
		p.out.AppendFanout(in, row, len(p.loops), slots, vals)
	default:
		// Both ends open: enumerate pairs with the same one-past-the-
		// budget cap the legacy evaluator used, so a genuinely
		// overflowing result errors rather than truncating.
		p.runs[PathPairs]++
		limit := 0
		if c.MaxRows > 0 {
			limit = c.MaxRows + 1 - p.rowsCum - p.out.Rows()
		}
		pairs, err := p.pa.PairsCtx(check, limit)
		if err != nil {
			return err
		}
		for _, pair := range pairs {
			r := p.out.AppendRow(in, row)
			p.out.Set(sSlot, r, pair[0])
			p.out.Set(oSlot, r, pair[1])
		}
	}
	return nil
}

// inStore reports whether the ID names a snapshot term (overflow IDs
// sit above the dictionary).
func (p *pathOp) inStore(id rdf.ID) bool { return int(id) < p.sn.NumTerms() }
