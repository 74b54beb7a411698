// Package exec is the slot-based columnar query executor shared by the
// SPARQL evaluator (internal/eval) and the graph engine
// (internal/engine). A query's variables are assigned dense slot
// indexes once, by a Schema built from the plan; intermediate results
// flow through the operator tree as fixed-capacity Batches — one
// rdf.ID column per slot — instead of per-row map[string]string
// bindings. Strings exist only at the edges: parse-time constants
// resolve through the snapshot dictionary (or intern into a Pool
// overflow for computed values), and a query's result is an Answer —
// ID columns plus that overflow — whose text is read when a response
// is serialized, not before.
//
// Operators are pull-based: Next returns the operator's next output
// batch, or nil at end of stream. Batches are owned by the operator
// that returns them and are overwritten by the following Next call, so
// a consumer must copy what it keeps. All operators preserve the
// row order of the row-at-a-time evaluation they replaced, which keeps
// the columnar executor result-identical (including solution-modifier
// tie-breaks) to the legacy materialized path it is tested against.
//
// A query is one such pipeline, pulled on the goroutine that asked for
// it: no operator starts a goroutine.
package exec

// Schema assigns query variables to dense slot indexes. It is built
// once per query — every operator and batch of that query shares it —
// and is immutable during execution.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{index: map[string]int{}}
}

// Slot returns the slot of name, assigning the next free slot on first
// sight.
func (s *Schema) Slot(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.names)
	s.index[name] = i
	s.names = append(s.names, name)
	return i
}

// SlotOf returns the slot of name without assigning one.
func (s *Schema) SlotOf(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Len returns the number of slots.
func (s *Schema) Len() int { return len(s.names) }

// Name returns the variable name of a slot.
func (s *Schema) Name(slot int) string { return s.names[slot] }
