package analysis

import (
	"sort"
	"strings"
)

// OperatorSet identifies which of the five operators of Table 3 a query
// body uses, plus whether it uses anything beyond them ("other features"
// in Section 4.3: BIND, MINUS, subqueries, property paths, SERVICE, VALUES,
// or EXISTS constraints).
type OperatorSet struct {
	And, Filter, Opt, Graph, Union bool
	Other                          bool
}

// Key renders the set in the paper's notation, e.g. "A, O, F" or "none".
// The flag order follows Table 3: A, O, U, G, F.
func (s OperatorSet) Key() string {
	if s.Other {
		return "other"
	}
	var parts []string
	if s.And {
		parts = append(parts, "A")
	}
	if s.Opt {
		parts = append(parts, "O")
	}
	if s.Union {
		parts = append(parts, "U")
	}
	if s.Graph {
		parts = append(parts, "G")
	}
	if s.Filter {
		parts = append(parts, "F")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// IsCPF reports whether the body is a conjunctive pattern with filters
// (Definition 4.1): only triples, And, and Filter.
func (s OperatorSet) IsCPF() bool {
	return !s.Other && !s.Opt && !s.Graph && !s.Union
}

// Distribution aggregates operator-set counts across queries, keyed by the
// paper's notation.
type Distribution struct {
	Counts map[string]int
	Total  int
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{Counts: make(map[string]int)}
}

// Add records one query's operator set.
func (d *Distribution) Add(s OperatorSet) {
	d.Counts[s.Key()]++
	d.Total++
}

// Merge folds another distribution into d (shard/corpus aggregation).
func (d *Distribution) Merge(o *Distribution) {
	for k, v := range o.Counts {
		d.Counts[k] += v
	}
	d.Total += o.Total
}

// CPFSubtotal returns the count of queries whose operator set is within
// {And, Filter} (the CPF fragment rows of Table 3: none, F, A, and "A, F").
func (d *Distribution) CPFSubtotal() int {
	return d.Counts["none"] + d.Counts["F"] + d.Counts["A"] + d.Counts["A, F"]
}

// PlusOpt returns the additional queries covered when Opt joins the CPF
// fragment (rows O / "O, F" / "A, O" / "A, O, F" of Table 3).
func (d *Distribution) PlusOpt() int {
	return d.Counts["O"] + d.Counts["O, F"] + d.Counts["A, O"] + d.Counts["A, O, F"]
}

// PlusGraph returns the additional queries covered when Graph joins CPF:
// all sets within {A, G, F} that include G.
func (d *Distribution) PlusGraph() int {
	return d.Counts["G"] + d.Counts["G, F"] + d.Counts["A, G"] + d.Counts["A, G, F"]
}

// PlusUnion returns the additional queries covered when Union joins CPF.
func (d *Distribution) PlusUnion() int {
	return d.Counts["U"] + d.Counts["U, F"] + d.Counts["A, U"] + d.Counts["A, U, F"]
}

// SortedKeys returns the observed operator-set keys, largest count first.
func (d *Distribution) SortedKeys() []string {
	keys := make([]string, 0, len(d.Counts))
	for k := range d.Counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if d.Counts[keys[i]] != d.Counts[keys[j]] {
			return d.Counts[keys[i]] > d.Counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
