package sparql

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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

// TestScopeOfAllocs pins what ScopeOf allocates for a one-triple
// SELECT: the Scope, which holds its first Names, and no name index (a
// query numbers its first names by a scan of Names).
func TestScopeOfAllocs(t *testing.T) {
	q, err := Parse("SELECT ?s WHERE { ?s <p> ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { ScopeOf(q) }); got != 1 {
		t.Errorf("ScopeOf of a one-triple SELECT: %v allocations, want 1", got)
	}
}

// TestScopeBlankLabelsAreNotVariables: the blank node label _:b is not
// the variable ?b, nor one whose name ends in b.
func TestScopeBlankLabelsAreNotVariables(t *testing.T) {
	q, err := Parse("SELECT * WHERE { ?xyb <p> _:b . ?b <q> _:b }")
	if err != nil {
		t.Fatal(err)
	}
	if s := ScopeOf(q); !slices.Equal(s.Names, []string{"xyb", "_:b", "b"}) {
		t.Errorf("Names = %q", s.Names)
	}
}

// TestScopeNumbersPastScan numbers more names than scanNames, variables
// and blank node labels both, so ScopeOf switches to its index midway:
// every name keeps one number, before and after the switch, and In and
// Elems read them back.
func TestScopeNumbersPastScan(t *testing.T) {
	var src strings.Builder
	src.WriteString("SELECT * WHERE {")
	const vars = 2 * scanNames
	for i := range vars {
		fmt.Fprintf(&src, " ?v%d <p> _:b%d . _:b%d <q> ?v%d .", i, i%3, i%3, (i+1)%vars)
	}
	src.WriteString(" FILTER(?v0 < ?late) }")
	q, err := Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	s := ScopeOf(q)
	if s.index == nil || len(s.Names) != vars+3+1 {
		t.Fatalf("%d names, index built %v; want %d and an index", len(s.Names), s.index != nil, vars+3+1)
	}
	for i, n := range s.Names {
		prefix, name := "", n
		if label, ok := strings.CutPrefix(n, "_:"); ok {
			prefix, name = "_:", label
		}
		if j, ok := s.Find(prefix, name); !ok || j != i {
			t.Errorf("%q is number %d, found as %d %v", n, i, j, ok)
		}
	}
	if !s.In(s.Bindable, "v31") || !s.In(s.Mentioned, "late") || s.In(s.Bindable, "late") || s.In(s.Bindable, "b0") {
		t.Error("In misreads the indexed numbering")
	}
	elems := s.Elems(q.Where.(*Group))
	if got := s.NamesOf(elems[len(elems)-1]); !slices.Equal(got, []string{"v0", "late"}) {
		t.Errorf("Elems of the FILTER = %v", got)
	}
	if got := s.NamesOf(elems[0]); !slices.Equal(got, []string{"v0", "_:b0"}) {
		t.Errorf("Elems of the first triple = %v", got)
	}
}

// TestScopeConcurrentReads reads one Scope from several goroutines, as
// the concurrent repeats of a prepared request do: In, NamesOf, Sub and
// Elems, on a Scope that scans its Names and on one with an index.
// Under -race it fails if a read writes the Scope.
func TestScopeConcurrentReads(t *testing.T) {
	var many strings.Builder
	many.WriteString("SELECT * WHERE {")
	for i := range 2 * scanNames {
		fmt.Fprintf(&many, " ?v%d <p> _:b%d .", i, i)
	}
	many.WriteString(" { SELECT ?v0 { ?v0 <q> ?w } } }")
	for _, src := range []string{"SELECT ?s WHERE { ?s <p> ?o . _:b <q> ?s }", many.String()} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		s := ScopeOf(q)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, n := range s.Names {
					s.In(s.Bindable, n)
				}
				s.In(s.Bindable, "absent")
				s.NamesOf(s.Mentioned)
				s.Elems(q.Where.(*Group))
				Walk(q.Where, func(p Pattern) bool {
					if ss, ok := p.(*SubSelect); ok {
						sub := s.Sub(ss.Query)
						sub.In(sub.Projected, "v0")
					}
					return true
				})
			}()
		}
		wg.Wait()
	}
}
