package sparql

// QueryString returns the canonical text form of the whole query: the
// one SPARQL writer's output in its canonical mode, covering the query
// form, DISTINCT/REDUCED, VALUES, aggregates, and every solution
// modifier (GROUP BY/HAVING/ORDER BY/LIMIT/OFFSET). As each term is
// written, variables and blank nodes are renamed to ?v0, ?v1, ... in
// first-occurrence order and prefixed names are expanded against the
// prologue and bracketed; the prologue itself is left out. So two
// queries that differ only in whitespace, prefix declarations, or
// variable names serialize identically. The output re-parses to itself
// (a fixpoint, fuzz-tested by FuzzQueryString), which makes it usable
// both as a structural dedup key — a refinement over the paper's
// exact-text dedup — and as the result-cache fingerprint: the full
// query including modifiers determines the answer, so nothing less may
// key a cache.
func QueryString(q *Query) string {
	w := writer{canon: newCanon(q.Prologue)}
	w.query(q)
	return w.String()
}

// CanonPatternStrings renders several patterns as PatternString does,
// in the writer's canonical mode under one shared renaming context
// (prefixes expanded against prologue, variables renamed in
// first-occurrence order across all patterns in argument order): the
// same bytes QueryString writes for them. Sharing the context keeps the
// comparison sound: UNION branches over the same variables canonicalize
// equal, while branches over different variables — which bind different
// solutions — stay distinct.
func CanonPatternStrings(prologue Prologue, patterns ...Pattern) []string {
	w := writer{canon: newCanon(prologue)}
	out := make([]string, len(patterns))
	for i, p := range patterns {
		if p == nil {
			continue
		}
		w.Reset()
		w.groupElement(p)
		out[i] = w.String()
	}
	return out
}
