package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"testing"

	"sparqlog/internal/loggen"
	"sparqlog/internal/sparql"
)

// eagerWalkPath is walkPath as it was before locations became lazy: the
// path string of every node built on the way down, reported on or not.
// It is the reference for where a node is.
func eagerWalkPath(p sparql.Pattern, path string, fn func(p sparql.Pattern, path string) bool) {
	if p == nil || !fn(p, path) {
		return
	}
	switch n := p.(type) {
	case *sparql.Group:
		for i, e := range n.Elems {
			eagerWalkPath(e, fmt.Sprintf("%s.group[%d]", path, i), fn)
		}
	case *sparql.Union:
		eagerWalkPath(n.Left, path+".union.left", fn)
		eagerWalkPath(n.Right, path+".union.right", fn)
	case *sparql.Optional:
		eagerWalkPath(n.Inner, path+".optional", fn)
	case *sparql.GraphGraph:
		eagerWalkPath(n.Inner, path+".graph", fn)
	case *sparql.MinusGraph:
		eagerWalkPath(n.Inner, path+".minus", fn)
	case *sparql.ServiceGraph:
		eagerWalkPath(n.Inner, path+".service", fn)
	}
}

type visit struct {
	node sparql.Pattern
	path string
}

// locationCorpus is every valid query of a slice of each loggen profile
// (the operator mix and nesting of the paper's logs) plus nestings the
// generator is thin on.
func locationCorpus(t *testing.T) []*sparql.Query {
	t.Helper()
	var srcs []string
	for i, p := range loggen.Profiles() {
		srcs = append(srcs, loggen.Generate(p, 400, int64(40+i)).Entries...)
	}
	srcs = append(srcs,
		`SELECT * WHERE { { ?a <urn:p> ?b } UNION { { ?a <urn:q> ?b } UNION { ?a <urn:q> ?b } } OPTIONAL { ?b <urn:r> ?c OPTIONAL { ?c <urn:s> ?d FILTER(?d = ?e) } } }`,
		`SELECT * WHERE { GRAPH ?g { ?s ?p ?o MINUS { ?s <urn:q> ?v FILTER(false) } } SERVICE <urn:x> { ?s ?p ?o . ?k ?l ?m } }`,
		`SELECT ?x WHERE { ?x <urn:p> ?y { SELECT ?y WHERE { ?y <urn:q> ?z . ?u <urn:r> ?w { SELECT ?w WHERE { ?w ?a ?b FILTER(?nope > 1) } } } } } ORDER BY ?gone`,
		`SELECT * WHERE { { SELECT ?a WHERE { ?a <urn:p> ?b { SELECT ?b WHERE { ?b <urn:q> ?c FILTER(false) } } } } { SELECT ?d WHERE { ?d <urn:r> ?e FILTER(false) } } ?a <urn:s> ?d }`,
		`SELECT * WHERE { ?a ?b ?c . { ?d ?e ?f . { ?g ?h ?i . { ?j ?k ?l . { ?m ?n ?o . { ?p ?q ?r . { ?s ?t ?u . { ?v ?w ?x . { ?y ?z ?aa . { ?ab ?ac ?ad FILTER(?ab = ?ac) } } } } } } } } } }`,
	)
	var qs []*sparql.Query
	for _, src := range srcs {
		if q, err := sparql.Parse(src); err == nil {
			qs = append(qs, q)
		}
	}
	if len(qs) < 1000 {
		t.Fatalf("only %d valid queries in the corpus", len(qs))
	}
	return qs
}

// eagerScope is one variable scope of a query and the path of its
// WHERE clause, as the eager walk finds them.
type eagerScope struct {
	sc   *sparql.Scope
	root string
}

// eagerScopes returns the scopes of q, the top query first and then its
// subqueries in pre-order, each subquery's path prefix being the eager
// path of its subselect.
func eagerScopes(q *sparql.Query) []eagerScope {
	var out []eagerScope
	var collect func(sc *sparql.Scope, prefix string)
	collect = func(sc *sparql.Scope, prefix string) {
		out = append(out, eagerScope{sc, prefix + "where"})
		if sc.Query.Where == nil {
			return
		}
		eagerWalkPath(sc.Query.Where, prefix+"where", func(p sparql.Pattern, path string) bool {
			if ss, ok := p.(*sparql.SubSelect); ok && ss.Query != nil {
				collect(sc.Sub(ss.Query), path+".")
			}
			return true
		})
	}
	collect(sparql.ScopeOf(q), "")
	return out
}

// eagerPaths returns every path the eager walk produces over every
// scope of q.
func eagerPaths(q *sparql.Query) map[string]bool {
	paths := map[string]bool{}
	for _, s := range eagerScopes(q) {
		if s.sc.Query.Where != nil {
			eagerWalkPath(s.sc.Query.Where, s.root, func(_ sparql.Pattern, path string) bool {
				paths[path] = true
				return true
			})
		}
	}
	return paths
}

// patternLocated reports whether a diagnostic's path locates a pattern
// node: all but SQL004's and SQL008's (select[i], describe[i],
// orderby[i]).
func patternLocated(d Diagnostic) bool { return d.Code != "SQL004" && d.Code != "SQL008" }

// TestLocationsMatchEagerWalk pins the lazy locations against the eager
// walk over the loggen corpus: in every scope of every query the two
// walks visit the same nodes in the same order and every node's
// rendered location is byte-identical to the eager path. Diagnostics
// take their Path from a location rendered at report time, so each
// reported path must be one the eager walk produced (for the element
// reports of SQL007, one group step below one); so must each subquery's
// path prefix, which Run renders from its walk.
func TestLocationsMatchEagerWalk(t *testing.T) {
	nodes, diags := 0, 0
	for _, q := range locationCorpus(t) {
		paths := map[string]bool{}
		for _, s := range eagerScopes(q) {
			if s.sc.Query.Where == nil {
				continue
			}
			var eager, lazy []visit
			eagerWalkPath(s.sc.Query.Where, s.root, func(p sparql.Pattern, path string) bool {
				eager = append(eager, visit{p, path})
				paths[path] = true
				return true
			})
			walkPath(s.sc.Query.Where, s.root, func(p sparql.Pattern, at *location) {
				lazy = append(lazy, visit{p, at.String()})
			})
			if len(eager) != len(lazy) {
				t.Fatalf("%s: eager walk visits %d nodes, lazy %d", sparql.QueryString(q), len(eager), len(lazy))
			}
			for i := range eager {
				if eager[i] != lazy[i] {
					t.Fatalf("%s: visit %d is %T at %q, eager walk has %T at %q",
						sparql.QueryString(q), i, lazy[i].node, lazy[i].path, eager[i].node, eager[i].path)
				}
			}
			nodes += len(eager)
		}
		for _, d := range Run(q).Diagnostics {
			if !patternLocated(d) {
				continue
			}
			diags++
			if !paths[d.Path] {
				t.Fatalf("%s: %s reported at %q, which the eager walk never produced", sparql.QueryString(q), d.Code, d.Path)
			}
		}
	}
	if nodes == 0 || diags == 0 {
		t.Fatalf("corpus exercised nothing: %d nodes, %d located diagnostics", nodes, diags)
	}
}

// outputDigest hashes everything lint says about each query, in order:
// every diagnostic's code, severity, path, message and snippet, and
// Empty.
func outputDigest(qs []*sparql.Query) (digest string, diags int) {
	h := sha256.New()
	for _, q := range qs {
		r := Run(q)
		for _, d := range r.Diagnostics {
			fmt.Fprintf(h, "%q %q %q %q %q\n", d.Code, d.Severity, d.Path, d.Message, d.Snippet)
		}
		fmt.Fprintf(h, "empty=%v\n", r.Empty)
		diags += len(r.Diagnostics)
	}
	return hex.EncodeToString(h.Sum(nil)), diags
}

// loggenQueries parses the distinct valid texts of the loggen corpus at
// scale 1e-4.
func loggenQueries(seed int64) []*sparql.Query {
	seen := map[string]bool{}
	var qs []*sparql.Query
	for _, ds := range loggen.GenerateCorpus(1e-4, seed) {
		for _, e := range ds.Entries {
			if seen[e] {
				continue
			}
			seen[e] = true
			if q, err := sparql.Parse(e); err == nil {
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// TestCodesMatchMapAndSort checks Codes, which drops adjacent duplicates
// of Run's code-ordered diagnostics, against collecting the codes in a
// set and sorting them, over the location corpus and the distinct
// loggen texts.
func TestCodesMatchMapAndSort(t *testing.T) {
	qs := append(locationCorpus(t), loggenQueries(1)...)
	flagged := 0
	for _, q := range qs {
		r := Run(q)
		seen := map[string]bool{}
		var want []string
		for _, d := range r.Diagnostics {
			if !seen[d.Code] {
				seen[d.Code] = true
				want = append(want, d.Code)
			}
		}
		sort.Strings(want)
		if got := r.Codes(); !slices.Equal(got, want) {
			t.Fatalf("Codes() = %v, want %v for\n%s", got, want, sparql.QueryString(q))
		}
		if len(want) > 1 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no query has two distinct codes: the corpus does not test the merge")
	}
}

// TestOutputPinned pins lint's whole output, byte for byte, over the
// location corpus and the distinct valid texts of the loggen corpus at
// two seeds. The digests were taken before the passes shared one walk
// per scope; any change to a code, severity, path, message, snippet,
// their order or Empty fails it.
func TestOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		qs   []*sparql.Query
		want string
	}{
		{"location-corpus", locationCorpus(t), "f665d5def4d8b4c8865875892595d28d647fc83c483ee8128b233a9ab1e63159"},
		{"loggen-seed-1", loggenQueries(1), "c5722bda54f2e65e75730924a60a5ac66b1080bd342cd77a3f809c8909542558"},
		{"loggen-seed-2", loggenQueries(2), "171ff3bb6692a1a7f95ce2637dcf4447593b853770d2cbe8ff439de807aeffa4"},
	} {
		got, diags := outputDigest(tc.qs)
		t.Logf("%s: %d queries, %d diagnostics, digest %s", tc.name, len(tc.qs), diags, got)
		if got != tc.want {
			t.Errorf("%s: lint output digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
