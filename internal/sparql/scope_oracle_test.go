package sparql_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// This file keeps the map-based variable collectors ScopeOf replaced,
// as oracles: refVars, refInScopeVars and refProjectedVars were the
// sparql package's Vars, InScopeVars and Query.ProjectedVars, and
// refBindableVars was the linter's bindableVars. They differ from
// ScopeOf in one place only: refBindableVars lets a MINUS body bind
// outward, where Scope.Bindable keeps those variables in MinusOnly.

func refVars(p sparql.Pattern) map[string]bool {
	out := make(map[string]bool)
	refCollectVars(p, out)
	return out
}

func refCollectVars(p sparql.Pattern, out map[string]bool) {
	sparql.Walk(p, func(n sparql.Pattern) bool {
		switch t := n.(type) {
		case *sparql.TriplePattern:
			refAddVar(t.S, out)
			refAddVar(t.P, out)
			refAddVar(t.O, out)
		case *sparql.PathPattern:
			refAddVar(t.S, out)
			refAddVar(t.O, out)
		case *sparql.GraphGraph:
			refAddVar(t.Name, out)
		case *sparql.ServiceGraph:
			refAddVar(t.Name, out)
		case *sparql.Filter:
			refCollectExprVars(t.Constraint, out)
		case *sparql.Bind:
			refCollectExprVars(t.Expr, out)
			refAddVar(t.Var, out)
		case *sparql.InlineData:
			for _, v := range t.Vars {
				refAddVar(v, out)
			}
		case *sparql.SubSelect:
			// A subquery only exposes its projected variables.
			if t.Query != nil {
				maps.Copy(out, refProjectedVars(t.Query))
			}
			return false
		}
		return true
	})
}

func refCollectExprVars(e sparql.Expr, out map[string]bool) {
	sparql.WalkExpr(e, func(x sparql.Expr) bool {
		switch t := x.(type) {
		case *sparql.TermExpr:
			refAddVar(t.Term, out)
		case *sparql.ExistsExpr:
			refCollectVars(t.Pattern, out)
		}
		return true
	})
}

func refAddVar(t sparql.Term, out map[string]bool) {
	if t.Kind == sparql.TermVar && t.Value != "" {
		out[t.Value] = true
	}
}

func refInScopeVars(p sparql.Pattern) (scope, bindOnly map[string]bool) {
	scope = make(map[string]bool)
	bindOnly = make(map[string]bool)
	var walk func(n sparql.Pattern)
	walk = func(n sparql.Pattern) {
		switch t := n.(type) {
		case *sparql.TriplePattern:
			refAddVar(t.S, scope)
			refAddVar(t.P, scope)
			refAddVar(t.O, scope)
		case *sparql.PathPattern:
			refAddVar(t.S, scope)
			refAddVar(t.O, scope)
		case *sparql.Group:
			for _, el := range t.Elems {
				walk(el)
			}
		case *sparql.Union:
			walk(t.Left)
			walk(t.Right)
		case *sparql.Optional:
			walk(t.Inner)
		case *sparql.GraphGraph:
			refAddVar(t.Name, scope)
			walk(t.Inner)
		case *sparql.ServiceGraph:
			refAddVar(t.Name, scope)
			walk(t.Inner)
		case *sparql.Bind:
			refAddVar(t.Var, bindOnly)
		case *sparql.InlineData:
			for _, v := range t.Vars {
				refAddVar(v, scope)
			}
		case *sparql.SubSelect:
			if t.Query != nil {
				maps.Copy(scope, refProjectedVars(t.Query))
			}
		}
		// MINUS and FILTER bind nothing in the enclosing scope.
	}
	walk(p)
	for v := range scope {
		delete(bindOnly, v)
	}
	return scope, bindOnly
}

func refProjectedVars(q *sparql.Query) map[string]bool {
	out := make(map[string]bool)
	star := false
	switch q.Type {
	case sparql.SelectQuery:
		star = q.SelectStar
		for _, it := range q.Select {
			refAddVar(it.Var, out)
		}
	case sparql.DescribeQuery:
		star = q.DescribeStar
		for _, t := range q.DescribeTerms {
			refAddVar(t, out)
		}
	}
	if !star {
		return out
	}
	scope, bindOnly := refInScopeVars(q.Where)
	maps.Copy(out, scope)
	maps.Copy(out, bindOnly)
	if q.TrailingValues != nil {
		for _, v := range q.TrailingValues.Vars {
			refAddVar(v, out)
		}
	}
	return out
}

func refBindableVars(q *sparql.Query) map[string]bool {
	out := make(map[string]bool)
	if q.Where != nil {
		sparql.Walk(q.Where, func(n sparql.Pattern) bool {
			switch t := n.(type) {
			case *sparql.TriplePattern:
				refAddVar(t.S, out)
				refAddVar(t.P, out)
				refAddVar(t.O, out)
			case *sparql.PathPattern:
				refAddVar(t.S, out)
				refAddVar(t.O, out)
			case *sparql.GraphGraph:
				refAddVar(t.Name, out)
			case *sparql.Bind:
				refAddVar(t.Var, out)
				return false // EXISTS inside the expression binds nothing
			case *sparql.InlineData:
				for _, v := range t.Vars {
					refAddVar(v, out)
				}
			case *sparql.SubSelect:
				if t.Query != nil {
					maps.Copy(out, refProjectedVars(t.Query))
				}
				return false
			case *sparql.Filter:
				return false // EXISTS matches never bind outward
			}
			return true
		})
	}
	if q.TrailingValues != nil {
		for _, v := range q.TrailingValues.Vars {
			refAddVar(v, out)
		}
	}
	for _, gk := range q.Mods.GroupBy {
		if gk.AsVar {
			refAddVar(gk.Var, out)
		}
	}
	return out
}

// setNames renders a Scope set as its sorted names, and names a map's
// keys the same way.
func setNames(s *sparql.Scope, set sparql.VarSet) string {
	return strings.Join(slices.Sorted(slices.Values(s.NamesOf(set))), " ")
}

func keyNames(m map[string]bool) string {
	return strings.Join(slices.Sorted(maps.Keys(m)), " ")
}

// checkScopeOracle compares ScopeOf(q), and the Scope of every subquery,
// with the oracles; it returns the number of scopes compared.
func checkScopeOracle(t *testing.T, q *sparql.Query) int {
	t.Helper()
	return checkScope(t, sparql.QueryString(q), q, sparql.ScopeOf(q))
}

func checkScope(t *testing.T, src string, q *sparql.Query, s *sparql.Scope) int {
	t.Helper()
	fail := func(what, got, want string) {
		t.Helper()
		t.Fatalf("%s: %s = %q, oracle %q", src, what, got, want)
	}
	if q.Where != nil {
		if got, want := setNames(s, s.Mentioned), keyNames(refVars(q.Where)); got != want {
			fail("Mentioned", got, want)
		}
		scope, bindOnly := refInScopeVars(q.Where)
		if got, want := setNames(s, s.InScope), keyNames(scope); got != want {
			fail("InScope", got, want)
		}
		if got, want := setNames(s, s.BindOnly), keyNames(bindOnly); got != want {
			fail("BindOnly", got, want)
		}
	}
	if got, want := setNames(s, s.Projected), keyNames(refProjectedVars(q)); got != want {
		fail("Projected", got, want)
	}
	// The one allowed difference: what only a MINUS body binds.
	if got, want := setNames(s, s.Bindable.Or(s.MinusOnly)), keyNames(refBindableVars(q)); got != want {
		fail("Bindable ∪ MinusOnly", got, want)
	}
	if both := s.Bindable.And(s.MinusOnly); both.Len() != 0 {
		fail("Bindable ∩ MinusOnly", setNames(s, both), "")
	}
	scopes := 1
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		switch g := p.(type) {
		case *sparql.Group:
			// Elems is Mentioned per element, blank node labels added.
			elems := s.Elems(g)
			for i, el := range g.Elems {
				got := setNames(s, elems[i])
				var vars []string
				for _, name := range strings.Fields(got) {
					if !strings.HasPrefix(name, "_:") {
						vars = append(vars, name)
					}
				}
				if want := keyNames(refVars(el)); strings.Join(vars, " ") != want {
					fail("Elems", got, want)
				}
			}
		case *sparql.Filter, *sparql.Bind:
			return false // subqueries inside EXISTS are reached below
		case *sparql.SubSelect:
			return false // its groups are its own Scope's
		}
		return true
	})
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		if ss, ok := p.(*sparql.SubSelect); ok && ss.Query != nil {
			sub := s.Sub(ss.Query)
			if sub == nil {
				t.Fatalf("%s: no Scope for subquery %s", src, sparql.PatternString(ss))
			}
			scopes += checkScope(t, src, ss.Query, sub)
			return false
		}
		return true
	})
	return scopes
}

// TestScopeOracleCorpus compares ScopeOf with the oracles on every
// distinct parseable loggen text at scale 1e-4, seeds 1 and 2017, and
// its numbering by the parser's numbers with one by name, on a fresh
// Scope and on one reused from text to text.
func TestScopeOracleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay")
	}
	var reused sparql.Scope
	seen := map[string]bool{}
	queries, scopes := 0, 0
	for _, seed := range []int64{1, 2017} {
		for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
			for _, e := range ds.Entries {
				if seen[e] {
					continue
				}
				seen[e] = true
				q, err := sparql.Parse(e)
				if err != nil {
					continue
				}
				queries++
				scopes += checkScopeOracle(t, q)
				checkNumbering(t, e, &reused)
			}
		}
	}
	if queries < 1000 || scopes <= queries {
		t.Fatalf("corpus exercised too little: %d queries, %d scopes", queries, scopes)
	}
}

// FuzzScopeOracle compares ScopeOf with the oracles on arbitrary
// parseable text, seeded with FuzzParse's corpus, and its numbering by
// the parser's numbers with one by name.
func FuzzScopeOracle(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Add("SELECT * { ?a <p> ?b MINUS { ?a <q> ?m BIND(1 AS ?k) { SELECT ?s { ?s ?p ?o } } } } VALUES ?t { 1 }")
	f.Add("SELECT ?a { ?a <p> ?b FILTER NOT EXISTS { ?b <q> ?c FILTER(?d > 1) MINUS { ?c <r> ?e } } }")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		checkScopeOracle(t, q)
		var reused sparql.Scope
		checkNumbering(t, src, &reused)
		checkNumbering(t, src, &reused)
	})
}

// checkNumbering parses src twice and clears the parser's numbers of
// one tree (Unnumber): the Scope numbered by the parser's numbers, and
// the same numbering reused, must be exactly the Scope numbered by
// name, in Names and every set, Elems and subquery Scope included.
func checkNumbering(t *testing.T, src string, reused *sparql.Scope) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		return
	}
	byName, _ := sparql.Parse(src)
	sparql.Unnumber(byName)
	want := sparql.ScopeOf(byName)
	sameScope(t, src, q, sparql.ScopeOf(q), byName, want)
	reused.Analyze(q)
	sameScope(t, src, q, reused, byName, want)
}

func sameScope(t *testing.T, src string, q *sparql.Query, got *sparql.Scope, wq *sparql.Query, want *sparql.Scope) {
	t.Helper()
	if !slices.Equal(got.Names, want.Names) {
		t.Fatalf("%s: Names %q, numbered by name %q", src, got.Names, want.Names)
	}
	for _, set := range []func(*sparql.Scope) sparql.VarSet{
		func(s *sparql.Scope) sparql.VarSet { return s.Mentioned },
		func(s *sparql.Scope) sparql.VarSet { return s.InScope },
		func(s *sparql.Scope) sparql.VarSet { return s.BindOnly },
		func(s *sparql.Scope) sparql.VarSet { return s.Projected },
		func(s *sparql.Scope) sparql.VarSet { return s.Bindable },
		func(s *sparql.Scope) sparql.VarSet { return s.MinusOnly },
	} {
		if g, w := got.NamesOf(set(got)), want.NamesOf(set(want)); !slices.Equal(g, w) {
			t.Fatalf("%s: a set is %q, numbered by name %q", src, g, w)
		}
	}
	groups, wgroups := nodesOf[*sparql.Group](q), nodesOf[*sparql.Group](wq)
	for i, g := range groups {
		if g, w := got.Elems(g), want.Elems(wgroups[i]); !slices.EqualFunc(g, w, func(a, b sparql.VarSet) bool {
			return slices.Equal(got.NamesOf(a), want.NamesOf(b))
		}) {
			t.Fatalf("%s: Elems of group %d differ from the Elems numbered by name", src, i)
		}
	}
	subs, wsubs := nodesOf[*sparql.SubSelect](q), nodesOf[*sparql.SubSelect](wq)
	for i, ss := range subs {
		sameScope(t, src, ss.Query, got.Sub(ss.Query), wsubs[i].Query, want.Sub(wsubs[i].Query))
	}
}

// nodesOf returns the nodes of type T of q's own body, in walk order:
// those of a subquery's body belong to its Scope.
func nodesOf[T sparql.Pattern](q *sparql.Query) []T {
	var out []T
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		switch n := p.(type) {
		case T:
			out = append(out, n)
		case *sparql.Filter, *sparql.Bind:
			return false
		}
		_, sub := p.(*sparql.SubSelect)
		return !sub
	})
	return out
}
