package sparql

import (
	"slices"
	"testing"
)

// TestVarSetOps checks And, Or and AndNot against their definitions on
// sets that cross the inline word, and of different lengths.
func TestVarSetOps(t *testing.T) {
	set := func(ns ...int) VarSet {
		var s VarSet
		for _, n := range ns {
			s.add(n)
		}
		return s
	}
	a := set(0, 3, 63, 64, 100, 200)
	b := set(3, 64, 130)
	for _, tc := range []struct {
		name string
		got  VarSet
		want []int
	}{
		{"And", a.And(b), []int{3, 64}},
		{"And, shorter first", b.And(a), []int{3, 64}},
		{"Or", a.Or(b), []int{0, 3, 63, 64, 100, 130, 200}},
		{"AndNot", a.AndNot(b), []int{0, 63, 100, 200}},
		{"AndNot, shorter first", b.AndNot(a), []int{130}},
	} {
		if got := slices.Collect(tc.got.All()); !slices.Equal(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
		if tc.got.Len() != len(tc.want) {
			t.Errorf("%s: Len = %d, want %d", tc.name, tc.got.Len(), len(tc.want))
		}
	}
}
