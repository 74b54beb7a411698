package pathcomp

import (
	"fmt"
	"strings"

	"sparqlog/internal/paths"
	"sparqlog/internal/rdf"
)

// Describe renders the forward automaton as one line per state, for
// the -explain transcript, under a header that names the expression's
// Table-5 class. term resolves predicate IDs to their text
// (nil falls back to #id).
func (pa *Path) Describe(term func(rdf.ID) string) string {
	render := func(pid rdf.ID) string {
		if term != nil {
			if t := term(pid); t != "" {
				return "<" + t + ">"
			}
		}
		return fmt.Sprintf("#%d", pid)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "automaton: %d states", len(pa.fwd.edges))
	if pa.closure {
		mode := "a+"
		if pa.reflexive {
			mode = "a*"
		}
		fmt.Fprintf(&b, "; fast path: %d-predicate closure (%s form)", len(pa.atoms), mode)
	}
	fmt.Fprintf(&b, "; class %s\n", paths.Classify(pa.expr).Type)
	for q, edges := range pa.fwd.edges {
		b.WriteString("  state ")
		fmt.Fprintf(&b, "%d", q)
		var marks []string
		if int32(q) == pa.fwd.start {
			marks = append(marks, "start")
		}
		if pa.fwd.accept[q] {
			marks = append(marks, "accept")
		}
		if len(marks) > 0 {
			b.WriteString(" (" + strings.Join(marks, ", ") + ")")
		}
		b.WriteByte(':')
		if len(edges) == 0 {
			b.WriteString(" (no transitions)")
		}
		for _, e := range edges {
			b.WriteByte(' ')
			switch e.kind {
			case opFwd:
				b.WriteString(render(e.pid))
			case opInv:
				b.WriteString("^" + render(e.pid))
			case opNegFwd, opNegInv:
				if e.kind == opNegInv {
					b.WriteString("!^(")
				} else {
					b.WriteString("!(")
				}
				for i, x := range e.excl {
					if i > 0 {
						b.WriteByte('|')
					}
					b.WriteString(render(x))
				}
				b.WriteByte(')')
			}
			fmt.Fprintf(&b, "->%d", e.to)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// EstimateReach is a statistics-only upper estimate of how many nodes
// one endpoint evaluation reaches: the automaton's labels each
// contribute their predicate's distinct-target population (reverse
// swaps subject/object roles), capped at the snapshot's node count.
// It is deliberately rough — the explain transcript pairs it with the
// actual count so the reader sees the error.
func (pa *Path) EstimateReach(reverse bool) float64 {
	st := pa.sn.Stats()
	a := pa.fwd
	if reverse {
		a = pa.rev
	}
	est := 1.0 // the start node itself, when accepting
	for _, edges := range a.edges {
		for _, e := range edges {
			switch e.kind {
			case opFwd:
				est += float64(st.Predicate(e.pid).Objects)
			case opInv:
				est += float64(st.Predicate(e.pid).Subjects)
			case opNegFwd:
				est += float64(st.DistinctObjects)
			case opNegInv:
				est += float64(st.DistinctSubjects)
			}
		}
	}
	if bound := float64(st.DistinctSubjects + st.DistinctObjects); bound > 0 && est > bound {
		est = bound
	}
	return est
}
