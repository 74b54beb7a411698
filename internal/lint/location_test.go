package lint

import (
	"fmt"
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

// TestLocationsMatchEagerWalk pins the lazy locations against the eager
// walk over the loggen corpus: in every scope of every query the two
// walks visit the same nodes in the same order and every node's
// rendered location is byte-identical to the eager path. Diagnostics
// take their Path from a location rendered at report time, so each
// reported path must be one the eager walk produced (for the element
// reports of SQL007, one group step below one).
func TestLocationsMatchEagerWalk(t *testing.T) {
	nodes, diags := 0, 0
	for _, q := range locationCorpus(t) {
		paths := map[string]bool{}
		for _, s := range scopes(sparql.ScopeOf(q)) {
			if s.sc.Query.Where == nil {
				continue
			}
			var eager, lazy []visit
			eagerWalkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, path string) bool {
				eager = append(eager, visit{p, path})
				paths[path] = true
				return true
			})
			walkPath(s.sc.Query.Where, s.wherePath(), func(p sparql.Pattern, at *location) bool {
				lazy = append(lazy, visit{p, at.String()})
				return true
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
			switch d.Code {
			case "SQL004", "SQL008": // select[i], describe[i], orderby[i]: not pattern locations
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
