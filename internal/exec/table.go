package exec

import "sparqlog/internal/rdf"

// tableJoin joins the input against a constant in-memory table of
// pre-interned ID rows: the operator behind VALUES blocks. For each
// input row × table row, a table cell either extends the binding, agrees
// with it, or (on disagreement) drops the combination; Unbound cells
// (UNDEF) constrain nothing. Like the reference evaluator's VALUES, it
// is not bounded by MaxRows.
type tableJoin struct {
	base
	in    Operator
	slots []int
	rows  [][]rdf.ID
}

// NewTableJoin returns the table join; each table row is aligned with
// slots.
func NewTableJoin(in Operator, slots []int, rows [][]rdf.ID) Operator {
	return &tableJoin{base: newBase(slotsOf(in)), in: in, slots: slots, rows: rows}
}

func (t *tableJoin) Next(c *Ctx) (*Batch, error) {
	for {
		in, err := t.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		t.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			if err := c.Check(255); err != nil {
				return nil, err
			}
			for _, trow := range t.rows {
				ok := true
				for ci, v := range trow {
					if v == Unbound {
						continue
					}
					if cur := in.Get(t.slots[ci], row); cur != Unbound && cur != v {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				r := t.out.AppendRow(in, row)
				for ci, v := range trow {
					if v != Unbound {
						t.out.Set(t.slots[ci], r, v)
					}
				}
			}
		}
		if b := t.emit(); b != nil {
			return b, nil
		}
	}
}

func (t *tableJoin) Reset() { t.in.Reset() }
