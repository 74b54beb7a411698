package exec

import (
	"sort"
	"strings"

	"sparqlog/internal/rdf"
	"sparqlog/internal/value"
)

// This file is the columnar GROUP BY / aggregation operator. Grouping
// runs on packed ID tuples of the key slots — never on strings — and
// each group carries one running state per aggregate. The dictionary is
// touched only where a value genuinely needs text: SUM/AVG parse the
// lexical form once per distinct ID (cached), GROUP_CONCAT materializes
// its parts at finalize, MIN/MAX compare lexical-or-numeric values, and
// COUNT/SAMPLE never look at text at all. Group emission preserves
// first-encounter order, the contract of the reference evaluator's
// string finisher, so the aggregated stream is row-for-row identical to
// it.

// AggKind selects one running-aggregate semantics.
type AggKind int

// Aggregate kinds. AggFirst is internal to the compiler: it captures
// the group's first input row's slot value (Unbound included), which is
// how the reference projects a plain non-key variable and reads any
// variable inside a SELECT, HAVING or ORDER BY expression (members[0]).
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
	AggSample
	AggConcat
	AggFirst
)

// AggSpec is one aggregate column: input slot (ignored for
// AggCountStar), output slot, and the COUNT-family modifiers.
type AggSpec struct {
	Kind AggKind
	// Slot is the argument slot; -1 marks an aggregate with nothing to
	// read — a variable the query never binds, a star form other than
	// COUNT(*), an unknown aggregate — where every row contributes
	// Unbound, as the reference's per-member expression error does.
	Slot int
	// Out is the output slot the finalized value lands in.
	Out      int
	Distinct bool
	// Sep is the GROUP_CONCAT separator (pass the resolved default).
	Sep string
}

// GroupSpec configures a GroupBy operator.
type GroupSpec struct {
	// Keys are the grouping slots. Group identity is the packed ID
	// tuple over them; an empty list puts every row in one group.
	Keys []int
	Aggs []AggSpec
	// EmptyGroup emits one synthetic all-zero group when the input is
	// empty and the query had no GROUP BY clause (COUNT(*) = 0).
	EmptyGroup bool
}

// valCache memoizes ID → value (the expression evaluator's reading of
// the term's text) so each distinct ID pays for text and the float
// parse at most once per cache.
type valCache struct {
	text func(rdf.ID) string
	vals map[rdf.ID]value.Value
}

func newValCache(text func(rdf.ID) string) *valCache {
	return &valCache{text: text, vals: map[rdf.ID]value.Value{}}
}

func (vc *valCache) get(id rdf.ID) value.Value {
	if v, ok := vc.vals[id]; ok {
		return v
	}
	v := value.Text(vc.text(id))
	vc.vals[id] = v
	return v
}

// aggState is one aggregate's running state within one group. DISTINCT
// aggregates accumulate the ordered distinct ID list and compute at
// finalize; the rest fold incrementally.
type aggState struct {
	count   int64
	sum     float64
	n       int64
	best    rdf.ID
	hasBest bool
	ids     []rdf.ID
	seen    map[rdf.ID]struct{}
}

// update folds one input row into the state. Unbound arguments
// contribute nothing (the reference's per-member expression error),
// except to COUNT(*) — which counts rows — and AggFirst, which records
// the first row's value verbatim.
func (s *aggState) update(a *AggSpec, id rdf.ID, vc *valCache) {
	switch a.Kind {
	case AggFirst:
		if !s.hasBest {
			s.best, s.hasBest = id, true
		}
		return
	case AggCountStar:
		s.count++
		return
	}
	if id == Unbound {
		return
	}
	if a.Distinct {
		if s.seen == nil {
			s.seen = map[rdf.ID]struct{}{}
		}
		if _, dup := s.seen[id]; dup {
			return
		}
		s.seen[id] = struct{}{}
		s.ids = append(s.ids, id)
		return
	}
	switch a.Kind {
	case AggCount:
		s.count++
	case AggSum, AggAvg:
		if v := vc.get(id); v.IsNum() {
			s.sum += v.Float()
			s.n++
		}
	case AggMin, AggMax:
		if !s.hasBest {
			s.best, s.hasBest = id, true
			return
		}
		if id == s.best {
			return
		}
		c := value.Compare(vc.get(id), vc.get(s.best))
		if a.Kind == AggMin && c < 0 || a.Kind == AggMax && c > 0 {
			s.best = id
		}
	case AggSample:
		if !s.hasBest {
			s.best, s.hasBest = id, true
		}
	case AggConcat:
		s.ids = append(s.ids, id)
	}
}

// finalize renders the state as an output ID. Values that already exist
// as IDs (MIN/MAX/SAMPLE/first) pass through without touching the
// dictionary; computed lexical forms (counts and sums, spelled as the
// expression evaluator spells a number, and concatenations) intern. An
// aggregate the reference errors on (AVG of nothing numeric, MIN of an
// empty group) finalizes to Unbound — the projected cell stays empty
// either way.
func (s *aggState) finalize(a *AggSpec, vc *valCache, intern func(string) rdf.ID) rdf.ID {
	if a.Distinct {
		return s.finalizeDistinct(a, vc, intern)
	}
	switch a.Kind {
	case AggCount, AggCountStar:
		return intern(value.Num(float64(s.count)).Lex())
	case AggSum:
		return intern(value.Num(s.sum).Lex())
	case AggAvg:
		if s.n == 0 {
			return Unbound
		}
		return intern(value.Num(s.sum / float64(s.n)).Lex())
	case AggMin, AggMax, AggSample, AggFirst:
		if !s.hasBest {
			return Unbound
		}
		return s.best
	case AggConcat:
		return internConcat(s.ids, a.Sep, vc, intern)
	}
	return Unbound
}

// finalizeDistinct computes a DISTINCT aggregate from the ordered
// distinct ID list (the reference dedups the value list before
// aggregating; dictionary IDs are bijective with text, so ID-level
// dedup selects the same values).
func (s *aggState) finalizeDistinct(a *AggSpec, vc *valCache, intern func(string) rdf.ID) rdf.ID {
	switch a.Kind {
	case AggCount:
		return intern(value.Num(float64(len(s.ids))).Lex())
	case AggSum, AggAvg:
		sum, n := 0.0, 0
		for _, id := range s.ids {
			if v := vc.get(id); v.IsNum() {
				sum += v.Float()
				n++
			}
		}
		if a.Kind == AggSum {
			return intern(value.Num(sum).Lex())
		}
		if n == 0 {
			return Unbound
		}
		return intern(value.Num(sum / float64(n)).Lex())
	case AggMin, AggMax:
		if len(s.ids) == 0 {
			return Unbound
		}
		best := s.ids[0]
		for _, id := range s.ids[1:] {
			c := value.Compare(vc.get(id), vc.get(best))
			if a.Kind == AggMin && c < 0 || a.Kind == AggMax && c > 0 {
				best = id
			}
		}
		return best
	case AggSample:
		if len(s.ids) == 0 {
			return Unbound
		}
		return s.ids[0]
	case AggConcat:
		return internConcat(s.ids, a.Sep, vc, intern)
	}
	return Unbound
}

func internConcat(ids []rdf.ID, sep string, vc *valCache, intern func(string) rdf.ID) rdf.ID {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = vc.get(id).Lex()
	}
	sort.Strings(parts) // the reference sorts for determinism
	return intern(strings.Join(parts, sep))
}

// aggGroup is one group: its key tuple and one state per aggregate.
type aggGroup struct {
	keys   []rdf.ID
	states []aggState
}

// aggTable is the hash aggregation table. Group identity is the packed
// key-slot ID tuple (4 bytes per slot — fixed-width, so field
// boundaries can never be confused, unlike the joined-string keys this
// replaces); order preserves first encounter.
type aggTable struct {
	spec   *GroupSpec
	vc     *valCache
	groups map[string]int
	order  []aggGroup
	key    []byte
	rows   int64 // consumed input rows
}

func newAggTable(spec *GroupSpec, vc *valCache) *aggTable {
	return &aggTable{spec: spec, vc: vc, groups: map[string]int{}}
}

// group returns the state row for the key tuple at (b, row), inserting
// in first-encounter order.
func (t *aggTable) group(b *Batch, row int) *aggGroup {
	t.key = t.key[:0]
	for _, s := range t.spec.Keys {
		v := b.Get(s, row)
		t.key = append(t.key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	gi, ok := t.groups[string(t.key)]
	if !ok {
		gi = len(t.order)
		t.groups[string(t.key)] = gi
		g := aggGroup{states: make([]aggState, len(t.spec.Aggs))}
		if len(t.spec.Keys) > 0 {
			g.keys = make([]rdf.ID, len(t.spec.Keys))
			for i, s := range t.spec.Keys {
				g.keys[i] = b.Get(s, row)
			}
		}
		t.order = append(t.order, g)
	}
	return &t.order[gi]
}

// addBatch folds every row of b into the table.
func (t *aggTable) addBatch(b *Batch) {
	t.rows += int64(b.Rows())
	aggs := t.spec.Aggs
	for row := 0; row < b.Rows(); row++ {
		g := t.group(b, row)
		for i := range aggs {
			a := &aggs[i]
			id := Unbound
			if a.Slot >= 0 {
				id = b.Get(a.Slot, row)
			}
			g.states[i].update(a, id, t.vc)
		}
	}
}

// groupByInfo summarizes one GroupBy execution for explain output.
type groupByInfo struct {
	// Groups is the emitted group count (before HAVING).
	Groups int64
	// InputRows is the number of rows aggregated.
	InputRows int64
}

// GroupBy is the pipeline breaker: it drains its input into an
// aggTable, then emits one output row per group — key slots and
// finalized aggregate slots set, everything else unbound — in
// first-encounter order.
type GroupBy struct {
	base
	in     Operator
	spec   GroupSpec
	intern func(string) rdf.ID
	vc     *valCache

	tab   *aggTable
	built bool
	synth bool // emitted the synthetic empty group
	pos   int
	info  groupByInfo
}

// NewGroupBy returns the GROUP BY / aggregation operator. text reads an
// ID's lexical form (the consumer-side dictionary view) and intern maps
// computed text back to an ID; intern("") must return Unbound.
func NewGroupBy(in Operator, spec GroupSpec, text func(rdf.ID) string, intern func(string) rdf.ID) *GroupBy {
	vc := newValCache(text)
	return &GroupBy{
		base:   newBase(slotsOf(in)),
		in:     in,
		spec:   spec,
		intern: intern,
		vc:     vc,
		tab:    newAggTable(&spec, vc),
	}
}

// SyntheticEmpty reports that the emitted stream is the one synthetic
// empty-input group (aggregation without GROUP BY over zero rows). The
// compiler's finishing expressions check it: the reference evaluates
// non-aggregate leaves against "the first member" of a group, and the
// synthetic group has none.
func (g *GroupBy) SyntheticEmpty() bool { return g.synth }

func (g *GroupBy) build(c *Ctx) error {
	for {
		b, err := g.in.Next(c)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		g.tab.addBatch(b)
	}
	if len(g.tab.order) == 0 && g.spec.EmptyGroup {
		g.synth = true
		g.tab.order = append(g.tab.order, aggGroup{states: make([]aggState, len(g.spec.Aggs))})
	}
	g.info.Groups = int64(len(g.tab.order))
	g.info.InputRows = g.tab.rows
	g.built = true
	return nil
}

func (g *GroupBy) Next(c *Ctx) (*Batch, error) {
	if !g.built {
		if err := g.build(c); err != nil {
			return nil, err
		}
	}
	if g.pos >= len(g.tab.order) {
		return nil, nil
	}
	g.out.Reset()
	//ctxpoll:ignore bounded emission: pos strictly advances over the materialized group list
	for g.pos < len(g.tab.order) && !g.out.Full() {
		grp := &g.tab.order[g.pos]
		row := g.out.AppendUnbound()
		for i, s := range g.spec.Keys {
			g.out.Set(s, row, grp.keys[i])
		}
		for i := range g.spec.Aggs {
			g.out.Set(g.spec.Aggs[i].Out, row, grp.states[i].finalize(&g.spec.Aggs[i], g.vc, g.intern))
		}
		g.pos++
	}
	return g.emit(), nil
}

func (g *GroupBy) Reset() {
	g.in.Reset()
	g.tab = newAggTable(&g.spec, g.vc)
	g.built, g.synth, g.pos = false, false, 0
	g.info = groupByInfo{}
}
