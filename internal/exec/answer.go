package exec

import "sparqlog/internal/rdf"

// Answer is one query answer in the form the executor computed it:
// column-major rdf.ID columns, one per projected variable. The
// evaluator returns it, the server files it in its result cache, and
// the serializers read it, so nothing between the last operator and the
// wire converts between representations. IDs below the snapshot's term count
// resolve through its dictionary, IDs at or above it index the answer's
// own overflow table (Pool's scheme), Unbound is a hole.
//
// An Answer is immutable once built and shared freely (every cache hit
// and the request that filled the entry hold one pointer): nobody may
// write through Vars or a column.
type Answer struct {
	// Vars is the projection, in order; empty for ASK.
	Vars []string
	// Bool is the ASK answer.
	Bool bool

	cols  [][]rdf.ID
	n     int
	base  rdf.ID
	extra []string
	// nilRows keeps the row form's nil-versus-empty distinction (ASK
	// carries nil rows), so Rows returns the rows NewAnswer was given.
	nilRows bool
}

// NewAnswer is the one rows→columns constructor: it interns string
// rows (aligned with vars, "" marking unbound, short rows padded with
// holes) through a fresh Pool over sn. Callers that hold rows instead
// of IDs — an ASK answer, which has none, and cache fills from row-form
// callers — reach the columnar form only through here.
func NewAnswer(sn *rdf.Snapshot, vars []string, rows [][]string, b bool) *Answer {
	p := NewPool(sn)
	cols := make([][]rdf.ID, len(vars))
	for j := range cols {
		cols[j] = make([]rdf.ID, len(rows))
	}
	for i, row := range rows {
		for j := range cols {
			cols[j][i] = Unbound
			if j < len(row) {
				cols[j][i] = p.Intern(row[j])
			}
		}
	}
	a := p.Answer(vars, cols, len(rows))
	a.Bool, a.nilRows = b, rows == nil
	return a
}

// Answer seals columns built against this pool (one per var, each n
// long; they pass into the answer's ownership). Only the overflow terms
// the columns reference are kept, under fresh dense IDs, so an answer
// never retains the intermediate values of the execution behind it. An
// empty answer reports nil rows.
func (p *Pool) Answer(vars []string, cols [][]rdf.ID, n int) *Answer {
	a := &Answer{Vars: vars, cols: cols, n: n, base: p.base, nilRows: true}
	if len(p.extra) == 0 {
		return a
	}
	remap := make([]rdf.ID, len(p.extra)) // new ID + 1; 0 = not referenced yet
	for _, col := range cols {
		for i, id := range col {
			if id < p.base || id == Unbound {
				continue
			}
			k := id - p.base
			if remap[k] == 0 {
				a.extra = append(a.extra, p.extra[k])
				remap[k] = p.base + rdf.ID(len(a.extra))
			}
			col[i] = remap[k] - 1
		}
	}
	return a
}

// Len returns the number of rows.
func (a *Answer) Len() int { return a.n }

// Col returns the column of Vars[j]: Len cells, read-only.
func (a *Answer) Col(j int) []rdf.ID { return a.cols[j] }

// Term returns the text of a cell ("" for Unbound); sn must be the
// snapshot the answer was computed against.
func (a *Answer) Term(sn *rdf.Snapshot, id rdf.ID) string {
	switch {
	case id == Unbound:
		return ""
	case id >= a.base:
		return a.extra[id-a.base]
	}
	return sn.TermOf(id)
}

// Rows materializes the row form: fresh string rows aligned with Vars,
// "" marking unbound. The caller owns the result.
func (a *Answer) Rows(sn *rdf.Snapshot) [][]string {
	if a.n == 0 && a.nilRows {
		return nil
	}
	cells := make([]string, a.n*len(a.cols))
	rows := make([][]string, a.n)
	for i := range rows {
		rows[i] = cells[i*len(a.cols) : (i+1)*len(a.cols) : (i+1)*len(a.cols)]
		for j, col := range a.cols {
			rows[i][j] = a.Term(sn, col[i])
		}
	}
	return rows
}

// Bytes estimates the memory the answer holds (four bytes per cell,
// its overflow, its variable names); the result cache budgets by it.
func (a *Answer) Bytes() int64 {
	n := int64(a.n) * int64(len(a.cols)) * 4
	for _, s := range a.extra {
		n += int64(len(s)) + 16
	}
	for _, v := range a.Vars {
		n += int64(len(v))
	}
	return n
}
