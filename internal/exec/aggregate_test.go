package exec

import (
	"fmt"
	"testing"

	"sparqlog/internal/rdf"
)

// groupRows is the GroupBy fixture: (key, argument) rows over slots 0
// and 1, "" standing for Unbound. Its groups, in first-encounter order,
// are b, a, d and c; d's first argument is unbound, c's only argument
// is not a number.
var groupRows = [][2]string{
	{"b", "2"}, {"a", "10"}, {"d", ""}, {"b", ""}, {"a", "1"}, {"b", "2"}, {"c", "x"}, {"d", "5"},
}

// runGroupBy folds rows through a GroupBy over spec (key slot 0,
// argument slot 1, output slot 2) and returns each emitted group's key
// and output text ("" for Unbound), and whether the stream was the
// synthetic empty group.
func runGroupBy(t *testing.T, rows [][2]string, spec GroupSpec) (keys, outs []string, synthetic bool) {
	t.Helper()
	pool := NewPool(rdf.NewStore().Freeze())
	in := NewBatch(3)
	for _, r := range rows {
		i := in.AppendUnbound()
		in.Set(0, i, pool.Intern(r[0]))
		in.Set(1, i, pool.Intern(r[1]))
	}
	seed := NewSeed(3)
	seed.SetBatches([]*Batch{in})
	gb := NewGroupBy(seed, spec, pool.Text, pool.Intern)
	for _, b := range drain(t, gb) {
		for r := 0; r < b.Rows(); r++ {
			keys = append(keys, pool.Text(b.Get(0, r)))
			outs = append(outs, pool.Text(b.Get(2, r)))
		}
	}
	return keys, outs, gb.SyntheticEmpty()
}

// TestGroupByKinds folds the fixture through every aggregate kind:
// plain, DISTINCT, and with no argument slot (Slot -1, the compiler's
// star forms and unknown aggregates, where every row contributes
// Unbound). Groups must come out in first-encounter order.
func TestGroupByKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		agg  AggSpec
		want []string // groups b, a, d, c
	}{
		{"count", AggSpec{Kind: AggCount, Slot: 1}, []string{"2", "2", "1", "1"}},
		{"count*", AggSpec{Kind: AggCountStar, Slot: 1}, []string{"3", "2", "2", "1"}},
		{"sum", AggSpec{Kind: AggSum, Slot: 1}, []string{"4", "11", "5", "0"}},
		{"min", AggSpec{Kind: AggMin, Slot: 1}, []string{"2", "1", "5", "x"}},
		{"max", AggSpec{Kind: AggMax, Slot: 1}, []string{"2", "10", "5", "x"}},
		{"avg", AggSpec{Kind: AggAvg, Slot: 1}, []string{"2", "5.5", "5", ""}},
		{"sample", AggSpec{Kind: AggSample, Slot: 1}, []string{"2", "10", "5", "x"}},
		{"concat", AggSpec{Kind: AggConcat, Slot: 1, Sep: ","}, []string{"2,2", "1,10", "5", "x"}},
		// AggFirst keeps the first row's value verbatim, Unbound included.
		{"first", AggSpec{Kind: AggFirst, Slot: 1}, []string{"2", "10", "", "x"}},

		{"count distinct", AggSpec{Kind: AggCount, Slot: 1, Distinct: true}, []string{"1", "2", "1", "1"}},
		{"sum distinct", AggSpec{Kind: AggSum, Slot: 1, Distinct: true}, []string{"2", "11", "5", "0"}},
		{"min distinct", AggSpec{Kind: AggMin, Slot: 1, Distinct: true}, []string{"2", "1", "5", "x"}},
		{"max distinct", AggSpec{Kind: AggMax, Slot: 1, Distinct: true}, []string{"2", "10", "5", "x"}},
		{"avg distinct", AggSpec{Kind: AggAvg, Slot: 1, Distinct: true}, []string{"2", "5.5", "5", ""}},
		{"sample distinct", AggSpec{Kind: AggSample, Slot: 1, Distinct: true}, []string{"2", "10", "5", "x"}},
		{"concat distinct", AggSpec{Kind: AggConcat, Slot: 1, Sep: ",", Distinct: true}, []string{"2", "1,10", "5", "x"}},

		{"count no slot", AggSpec{Kind: AggCount, Slot: -1}, []string{"0", "0", "0", "0"}},
		{"count* no slot", AggSpec{Kind: AggCountStar, Slot: -1}, []string{"3", "2", "2", "1"}},
		{"sum no slot", AggSpec{Kind: AggSum, Slot: -1}, []string{"0", "0", "0", "0"}},
		{"min no slot", AggSpec{Kind: AggMin, Slot: -1}, []string{"", "", "", ""}},
		{"max no slot", AggSpec{Kind: AggMax, Slot: -1}, []string{"", "", "", ""}},
		{"avg no slot", AggSpec{Kind: AggAvg, Slot: -1}, []string{"", "", "", ""}},
		{"sample no slot", AggSpec{Kind: AggSample, Slot: -1}, []string{"", "", "", ""}},
		{"concat no slot", AggSpec{Kind: AggConcat, Slot: -1, Sep: ","}, []string{"", "", "", ""}},
		{"first no slot", AggSpec{Kind: AggFirst, Slot: -1}, []string{"", "", "", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.agg.Out = 2
			keys, outs, synthetic := runGroupBy(t, groupRows, GroupSpec{Keys: []int{0}, Aggs: []AggSpec{tc.agg}})
			if got := fmt.Sprint(keys); got != "[b a d c]" {
				t.Fatalf("group order %s, want [b a d c] (first encounter)", got)
			}
			if fmt.Sprint(outs) != fmt.Sprint(tc.want) {
				t.Fatalf("outputs %q, want %q", outs, tc.want)
			}
			if synthetic {
				t.Fatal("a non-empty input reported the synthetic empty group")
			}
		})
	}
}

// TestGroupByEmptyInput: with EmptyGroup set, an empty input emits one
// synthetic group whose aggregates are those of no rows (COUNT 0, SUM
// 0, everything else Unbound); without it, or under GROUP BY keys over
// an empty input, nothing is emitted. A non-empty input never emits the
// synthetic group.
func TestGroupByEmptyInput(t *testing.T) {
	kinds := []AggKind{AggCount, AggCountStar, AggSum, AggMin, AggMax, AggAvg, AggSample, AggConcat, AggFirst}
	spec := GroupSpec{EmptyGroup: true}
	for i, k := range kinds {
		spec.Aggs = append(spec.Aggs, AggSpec{Kind: k, Slot: 1, Out: 2 + i})
	}
	pool := NewPool(rdf.NewStore().Freeze())
	gb := NewGroupBy(NewSeed(2+len(kinds)), spec, pool.Text, pool.Intern)
	batches := drain(t, gb)
	if rowsOf(batches) != 1 || !gb.SyntheticEmpty() {
		t.Fatalf("rows = %d, synthetic = %v; want the one synthetic group", rowsOf(batches), gb.SyntheticEmpty())
	}
	want := []string{"0", "0", "0", "", "", "", "", "", ""}
	for i := range kinds {
		if got := pool.Text(batches[0].Get(2+i, 0)); got != want[i] {
			t.Errorf("kind %d over no rows = %q, want %q", kinds[i], got, want[i])
		}
	}

	spec.EmptyGroup = false
	if n := rowsOf(drain(t, NewGroupBy(NewSeed(2+len(kinds)), spec, pool.Text, pool.Intern))); n != 0 {
		t.Fatalf("no EmptyGroup: %d rows over an empty input, want 0", n)
	}
	if keys, _, _ := runGroupBy(t, nil, GroupSpec{Keys: []int{0}, Aggs: []AggSpec{{Kind: AggCountStar, Out: 2}}}); len(keys) != 0 {
		t.Fatalf("grouped empty input emitted %v", keys)
	}
	_, outs, synthetic := runGroupBy(t, groupRows, GroupSpec{EmptyGroup: true, Aggs: []AggSpec{{Kind: AggCountStar, Out: 2}}})
	if synthetic || fmt.Sprint(outs) != "[8]" {
		t.Fatalf("ungrouped input: counts %q synthetic %v, want one group of 8", outs, synthetic)
	}
}
