package exec

import (
	"context"
	"errors"
	"time"
)

// ErrRowLimit is returned when an operator's cumulative output exceeds
// Ctx.MaxRows. The text matches the legacy evaluator's error.
var ErrRowLimit = errors.New("eval: row limit exceeded")

// ErrTimeout is returned when the context's deadline strikes or it is
// cancelled mid-execution.
var ErrTimeout = errors.New("exec: timeout")

// Ctx carries per-execution state: the deadline ticker and the row
// budget shared by every operator of one pipeline.
type Ctx struct {
	ctx      context.Context
	deadline time.Time
	hasDL    bool
	steps    int
	// MaxRows caps any single operator's cumulative output where the
	// operator opts in (the legacy evaluator's intermediate-result
	// bound); 0 means unlimited.
	MaxRows int
	// Probes counts snapshot index accesses made by the operators of
	// this execution — the "did evaluation touch the store" meter.
	// Statically short-circuited queries finish with Probes == 0.
	Probes int64
}

// NewCtx returns an execution context honoring ctx's deadline and
// cancellation.
func NewCtx(ctx context.Context) *Ctx {
	dl, ok := ctx.Deadline()
	return &Ctx{ctx: ctx, deadline: dl, hasDL: ok}
}

// Check polls the deadline every mask+1 calls (mask must be a power of
// two minus one), keeping time.Now out of inner loops.
func (c *Ctx) Check(mask int) error {
	c.steps++
	if c.steps&mask != 0 {
		return nil
	}
	return c.Poll()
}

// Poll checks the deadline and cancellation immediately, with no step
// batching — the probe handed to subsystems (pathcomp) that batch
// their own steps.
func (c *Ctx) Poll() error {
	if c.hasDL && time.Now().After(c.deadline) {
		return ErrTimeout
	}
	if c.ctx.Err() != nil {
		return ErrTimeout
	}
	return nil
}

// OpStats counts one operator's output.
type OpStats struct {
	Batches int64
	Rows    int64
	// Recovered counts silent SERVICE recoveries: inner evaluations
	// that failed and fell back to the unjoined input (SERVICE SILENT
	// semantics). Zero everywhere except recover operators.
	Recovered int64
}

// Operator is a pull-based batch producer. Next returns the next
// output batch or nil at end of stream; the returned batch is
// invalidated by the following Next call. Reset rewinds the operator
// (and its inputs) so the stream can run again — correlated operators
// (Optional, Exists evaluation) reset their inner subtree per outer
// row.
type Operator interface {
	Next(c *Ctx) (*Batch, error)
	Reset()
	Stats() *OpStats
}

// base carries the shared output-batch and stats plumbing.
type base struct {
	out   *Batch
	stats OpStats
}

func newBase(slots int) base {
	return base{out: NewBatch(slots)}
}

func (b *base) Stats() *OpStats { return &b.stats }

// Slots returns the operator's schema width.
func (b *base) Slots() int { return b.out.Slots() }

// slotsOf reads the schema width off an operator (they all embed base).
func slotsOf(op Operator) int {
	return op.(interface{ Slots() int }).Slots()
}

// emit finalizes an output batch: counts it and returns nil for an
// empty one (operators translate an empty flush into end-of-stream or
// a retry as appropriate).
func (b *base) emit() *Batch {
	if b.out.Rows() == 0 {
		return nil
	}
	b.stats.Batches++
	b.stats.Rows += int64(b.out.Rows())
	return b.out
}

// ---------- sources ----------

// unit emits one all-unbound row, once.
type unit struct {
	base
	done bool
}

// NewUnit returns the unit source: a single row with every slot
// unbound (the empty binding every evaluation starts from).
func NewUnit(slots int) Operator { return &unit{base: newBase(slots)} }

func (u *unit) Next(c *Ctx) (*Batch, error) {
	if u.done {
		return nil, nil
	}
	u.done = true
	u.out.Reset()
	u.out.AppendUnbound()
	return u.emit(), nil
}

func (u *unit) Reset() { u.done = false }

// Seed replays externally supplied rows: the root of correlated
// subtrees (OPTIONAL inner per outer row, EXISTS per filtered row) and
// of replayed streams (UNION branches). SetRow/SetBatches load it;
// Reset rewinds the replay without clearing the rows.
type Seed struct {
	base
	src     *Batch // single-row mode: source batch + row
	srcRow  int
	batches []*Batch // multi-batch mode
	pos     int
	done    bool
}

// NewSeed returns an empty seed over the schema width.
func NewSeed(slots int) *Seed { return &Seed{base: newBase(slots)} }

// SetRow loads the seed with one row of b (referenced, not copied: the
// caller must not advance b's producer while the subtree runs).
func (s *Seed) SetRow(b *Batch, row int) {
	s.src, s.srcRow, s.batches = b, row, nil
	s.Reset()
}

// SetBatches loads the seed with an owned batch list.
func (s *Seed) SetBatches(batches []*Batch) {
	s.src, s.batches = nil, batches
	s.Reset()
}

func (s *Seed) Next(c *Ctx) (*Batch, error) {
	if s.src != nil {
		if s.done {
			return nil, nil
		}
		s.done = true
		s.out.Reset()
		s.out.AppendRow(s.src, s.srcRow)
		return s.emit(), nil
	}
	//ctxpoll:ignore bounded replay: pos strictly advances over a materialized batch list
	for s.pos < len(s.batches) {
		b := s.batches[s.pos]
		s.pos++
		if b.Rows() > 0 {
			s.stats.Batches++
			s.stats.Rows += int64(b.Rows())
			return b, nil
		}
	}
	return nil, nil
}

func (s *Seed) Reset() { s.done, s.pos = false, 0 }

// ---------- row-shaping operators ----------

// filterOp keeps rows satisfying a predicate. The predicate sees the
// input batch and a row index; expression errors count as false, per
// SPARQL filter semantics (the caller encodes that in pred).
type filterOp struct {
	base
	in   Operator
	pred func(c *Ctx, b *Batch, row int) bool
}

// NewFilter returns a filter over pred.
func NewFilter(in Operator, pred func(c *Ctx, b *Batch, row int) bool) Operator {
	return &filterOp{base: newBase(slotsOf(in)), in: in, pred: pred}
}

func (f *filterOp) Next(c *Ctx) (*Batch, error) {
	for {
		in, err := f.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		f.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			if f.pred(c, in, row) {
				f.out.AppendRow(in, row)
			}
		}
		if b := f.emit(); b != nil {
			return b, nil
		}
	}
}

func (f *filterOp) Reset() { f.in.Reset() }

// applyOp rewrites rows one at a time through fn, which appends zero
// or more output rows for each input row. It is the generic hook for
// BIND, GRAPH and VALUES-style operators whose logic lives in the
// caller. capped opts the operator into the MaxRows budget.
type applyOp struct {
	base
	in      Operator
	fn      func(c *Ctx, in *Batch, row int, out *Batch) error
	capped  bool
	rowsCum int
}

// NewApply returns a per-row rewrite operator.
func NewApply(in Operator, capped bool, fn func(c *Ctx, in *Batch, row int, out *Batch) error) Operator {
	return &applyOp{base: newBase(slotsOf(in)), in: in, fn: fn, capped: capped}
}

func (a *applyOp) Next(c *Ctx) (*Batch, error) {
	for {
		in, err := a.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		a.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			if err := a.fn(c, in, row, a.out); err != nil {
				return nil, err
			}
			if a.capped && c.MaxRows > 0 && a.rowsCum+a.out.Rows() > c.MaxRows {
				return nil, ErrRowLimit
			}
		}
		a.rowsCum += a.out.Rows()
		if b := a.emit(); b != nil {
			return b, nil
		}
	}
}

func (a *applyOp) Reset() {
	a.in.Reset()
	a.rowsCum = 0
}

// ---------- binary-shape operators ----------

// optionalOp implements left outer join against a correlated inner
// subtree: per input row, the seed is loaded and the subtree drained;
// rows come back extended, or unchanged when the subtree was empty.
type optionalOp struct {
	base
	in      Operator
	inner   Operator
	seed    *Seed
	rowsCum int
}

// NewOptional returns the OPTIONAL operator. inner must be rooted at
// seed.
func NewOptional(in Operator, inner Operator, seed *Seed) Operator {
	return &optionalOp{base: newBase(slotsOf(in)), in: in, inner: inner, seed: seed}
}

func (o *optionalOp) Next(c *Ctx) (*Batch, error) {
	for {
		in, err := o.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		o.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			o.seed.SetRow(in, row)
			o.inner.Reset()
			matched := false
			for {
				ib, err := o.inner.Next(c)
				if err != nil {
					return nil, err
				}
				if ib == nil {
					break
				}
				matched = true
				for r := 0; r < ib.Rows(); r++ {
					o.out.AppendRow(ib, r)
				}
			}
			if !matched {
				o.out.AppendRow(in, row)
			}
			if c.MaxRows > 0 && o.rowsCum+o.out.Rows() > c.MaxRows {
				return nil, ErrRowLimit
			}
		}
		o.rowsCum += o.out.Rows()
		if b := o.emit(); b != nil {
			return b, nil
		}
	}
}

func (o *optionalOp) Reset() {
	o.in.Reset()
	o.rowsCum = 0
}

// unionOp materializes its input once and replays it through both
// branches, left fully before right — the legacy evaluator's
// concatenation order, which DISTINCT/LIMIT tie-breaking depends on.
type unionOp struct {
	base
	in           Operator
	left, right  Operator
	lseed, rseed *Seed
	started      bool
	onRight      bool
	rowsCum      int
}

// NewUnion returns the UNION operator. left must be rooted at lseed
// and right at rseed.
func NewUnion(in Operator, left Operator, lseed *Seed, right Operator, rseed *Seed) Operator {
	return &unionOp{base: newBase(slotsOf(in)), in: in, left: left, right: right, lseed: lseed, rseed: rseed}
}

func (u *unionOp) Next(c *Ctx) (*Batch, error) {
	if !u.started {
		batches, err := Materialize(c, u.in)
		if err != nil {
			return nil, err
		}
		u.lseed.SetBatches(batches)
		u.rseed.SetBatches(batches)
		u.left.Reset()
		u.right.Reset()
		u.started = true
	}
	for {
		var b *Batch
		var err error
		if !u.onRight {
			b, err = u.left.Next(c)
			if err != nil {
				return nil, err
			}
			if b == nil {
				u.onRight = true
				continue
			}
		} else {
			b, err = u.right.Next(c)
			if err != nil {
				return nil, err
			}
			if b == nil {
				return nil, nil
			}
		}
		u.rowsCum += b.Rows()
		if c.MaxRows > 0 && u.rowsCum > c.MaxRows {
			return nil, ErrRowLimit
		}
		u.stats.Batches++
		u.stats.Rows += int64(b.Rows())
		return b, nil
	}
}

func (u *unionOp) Reset() {
	u.in.Reset()
	u.started, u.onRight, u.rowsCum = false, false, 0
}

// minusOp drops input rows compatible with (and sharing at least one
// slot with) any row of the inner stream, which is evaluated once from
// the unit binding — SPARQL MINUS semantics over ID columns.
type minusOp struct {
	base
	in      Operator
	inner   Operator
	started bool
	removed []*Batch
}

// NewMinus returns the MINUS operator; inner evaluates independently
// of the input (rooted at its own unit source).
func NewMinus(in Operator, inner Operator) Operator {
	return &minusOp{base: newBase(slotsOf(in)), in: in, inner: inner}
}

func (m *minusOp) Next(c *Ctx) (*Batch, error) {
	for {
		in, err := m.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		// Materialize the removal set only once input actually arrives:
		// a dead upstream skips the inner evaluation (and any error it
		// would have hit), like the legacy group short-circuit.
		if !m.started {
			removed, merr := Materialize(c, m.inner)
			if merr != nil {
				return nil, merr
			}
			m.removed = removed
			m.started = true
		}
		m.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			excluded := false
			for _, rb := range m.removed {
				for r := 0; r < rb.Rows(); r++ {
					if compatibleSharing(in, row, rb, r) {
						excluded = true
						break
					}
				}
				if excluded {
					break
				}
			}
			if !excluded {
				m.out.AppendRow(in, row)
			}
		}
		if b := m.emit(); b != nil {
			return b, nil
		}
	}
}

func (m *minusOp) Reset() {
	m.in.Reset()
	m.inner.Reset()
	m.started, m.removed = false, nil
}

// compatibleSharing reports whether row a of ba is compatible with row
// b of bb and they share at least one bound slot (MINUS removal).
func compatibleSharing(ba *Batch, a int, bb *Batch, b int) bool {
	shared := false
	for s := 0; s < bb.Slots(); s++ {
		rv := bb.Get(s, b)
		if rv == Unbound {
			continue
		}
		av := ba.Get(s, a)
		if av == Unbound {
			continue
		}
		if av != rv {
			return false
		}
		shared = true
	}
	return shared
}

// recoverOp runs inner over a materialized copy of the input and, on
// error, yields the input unchanged — SERVICE SILENT semantics.
type recoverOp struct {
	base
	in       Operator
	inner    Operator
	seed     *Seed
	started  bool
	fallback []*Batch
	fpos     int
}

// NewRecover returns the silent-recovery operator. inner must be
// rooted at seed.
func NewRecover(in Operator, inner Operator, seed *Seed) Operator {
	return &recoverOp{base: newBase(slotsOf(in)), in: in, inner: inner, seed: seed}
}

func (r *recoverOp) Next(c *Ctx) (*Batch, error) {
	if !r.started {
		batches, err := Materialize(c, r.in)
		if err != nil {
			return nil, err
		}
		r.fallback = batches
		r.seed.SetBatches(batches)
		r.inner.Reset()
		// Drain the inner stream eagerly: an error anywhere in it must
		// fall back to the input as a whole, not after partial output.
		drained, derr := Materialize(c, r.inner)
		switch {
		case derr == ErrTimeout:
			return nil, derr
		case derr == nil:
			r.fallback = drained
		default:
			// Any other error: the materialized input stays as the
			// fallback — SILENT semantics — but the swallowed failure is
			// counted so no-op federation stays observable.
			r.stats.Recovered++
		}
		r.started = true
	}
	//ctxpoll:ignore bounded replay: fpos strictly advances over the materialized fallback
	for r.fpos < len(r.fallback) {
		b := r.fallback[r.fpos]
		r.fpos++
		if b.Rows() > 0 {
			r.stats.Batches++
			r.stats.Rows += int64(b.Rows())
			return b, nil
		}
	}
	return nil, nil
}

func (r *recoverOp) Reset() {
	r.in.Reset()
	r.started, r.fallback, r.fpos = false, nil, 0
}

// ---------- solution modifiers ----------

// distinctOp deduplicates rows on a slot subset via packed ID-tuple
// keys — the columnar replacement for joined-string dedup keys.
type distinctOp struct {
	base
	in    Operator
	slots []int
	seen  map[string]struct{}
	key   []byte
}

// NewDistinct returns a streaming DISTINCT on the given slots,
// keeping each first occurrence in stream order.
func NewDistinct(in Operator, slots []int) Operator {
	return &distinctOp{base: newBase(slotsOf(in)), in: in, slots: slots, seen: map[string]struct{}{}}
}

func (d *distinctOp) Next(c *Ctx) (*Batch, error) {
	for {
		in, err := d.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		d.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			d.key = d.key[:0]
			for _, s := range d.slots {
				v := in.Get(s, row)
				d.key = append(d.key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			if _, dup := d.seen[string(d.key)]; dup {
				continue
			}
			d.seen[string(d.key)] = struct{}{}
			d.out.AppendRow(in, row)
		}
		if b := d.emit(); b != nil {
			return b, nil
		}
	}
}

func (d *distinctOp) Reset() {
	d.in.Reset()
	d.seen = map[string]struct{}{}
}

// limitOp implements OFFSET/LIMIT over the stream, ending the pull
// early once the limit is satisfied.
type limitOp struct {
	base
	in      Operator
	offset  int
	limit   int // -1 = unlimited
	skipped int
	emitted int
}

// NewLimit returns a limit operator; limit < 0 means no limit.
func NewLimit(in Operator, offset, limit int) Operator {
	return &limitOp{base: newBase(slotsOf(in)), in: in, offset: offset, limit: limit}
}

func (l *limitOp) Next(c *Ctx) (*Batch, error) {
	if l.limit >= 0 && l.emitted >= l.limit {
		return nil, nil
	}
	for {
		in, err := l.in.Next(c)
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		l.out.Reset()
		for row := 0; row < in.Rows(); row++ {
			if l.skipped < l.offset {
				l.skipped++
				continue
			}
			if l.limit >= 0 && l.emitted >= l.limit {
				break
			}
			l.out.AppendRow(in, row)
			l.emitted++
		}
		if b := l.emit(); b != nil {
			return b, nil
		}
		if l.limit >= 0 && l.emitted >= l.limit {
			return nil, nil
		}
	}
}

func (l *limitOp) Reset() {
	l.in.Reset()
	l.skipped, l.emitted = 0, 0
}

// Materialize drains op into an owned batch list (copies, since
// operators reuse their output batches).
func Materialize(c *Ctx, op Operator) ([]*Batch, error) {
	var out []*Batch
	for {
		b, err := op.Next(c)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		cp := NewBatch(b.Slots())
		for row := 0; row < b.Rows(); row++ {
			cp.AppendRow(b, row)
		}
		out = append(out, cp)
	}
}

// Count drains op, returning the total row count; with stopAt > 0 the
// pull ends early once that many rows were seen (ASK short-circuit).
func Count(c *Ctx, op Operator, stopAt int64) (int64, error) {
	var n int64
	for {
		b, err := op.Next(c)
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		n += int64(b.Rows())
		if stopAt > 0 && n >= stopAt {
			return n, nil
		}
	}
}
