package analysis

import "strings"

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
	i := 0
	for b, on := range [...]bool{s.And, s.Opt, s.Union, s.Graph, s.Filter} {
		if on {
			i |= 1 << b
		}
	}
	return operatorKeys[i]
}

// operatorKeys holds Key of each set without Other, indexed by its
// flags in Table 3's order, A the lowest bit: built once, so that
// counting a query's set builds no string.
var operatorKeys = func() (keys [32]string) {
	for i := range keys {
		var parts []string
		for b, name := range [...]string{"A", "O", "U", "G", "F"} {
			if i&(1<<b) != 0 {
				parts = append(parts, name)
			}
		}
		keys[i] = "none"
		if len(parts) > 0 {
			keys[i] = strings.Join(parts, ", ")
		}
	}
	return keys
}()

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
