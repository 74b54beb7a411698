package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"sparqlog/internal/rdf"
)

// FuzzExecDifferential drives the columnar executor against the
// reference evaluator on randomized stores and operator trees (BGPs
// with repeated variables, OPTIONAL, UNION, MINUS, FILTER, EXISTS,
// VALUES, property paths, DISTINCT, ASK), then filters the same store
// through a random expression over its variables whose outermost form
// comes from the builtin family the seed selects, and last runs the
// aggregate family: a random GROUP BY / aggregate / HAVING / ORDER BY /
// LIMIT query over a random aggregate store. Any divergence in errors,
// the ASK answer, the projection, or the solution multiset (for the
// aggregate family, the row sequence) is a finding.
func FuzzExecDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		f.Add(seed)
	}
	nFam := int64(len(exprFamilies))
	for fam := int64(0); fam < nFam; fam++ {
		f.Add(100*nFam + fam) // one corpus entry per builtin family
	}
	for _, seed := range []int64{2026, 4711, 65537, 271828} {
		f.Add(seed) // aggregate-family entries
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		st := rdf.NewStore()
		nNodes := 3 + rng.Intn(10)
		nPreds := 1 + rng.Intn(3)
		for i := 0; i < 4+rng.Intn(40); i++ {
			st.Add(
				fmt.Sprintf("urn:n%d", rng.Intn(nNodes)),
				fmt.Sprintf("urn:p%d", rng.Intn(nPreds)),
				fmt.Sprintf("urn:n%d", rng.Intn(nNodes)),
			)
		}
		sn := st.Freeze()
		diffColumnarReference(t, sn, randomQuery(rng, nNodes, nPreds))

		g := &exprGen{rng: rng, vars: []string{"?s", "?p", "?o"}}
		fam := exprFamilies[int((seed%nFam+nFam)%nFam)]
		diffColumnarReference(t, sn, `PREFIX ex: <http://example.org/> SELECT * WHERE { ?s ?p ?o FILTER(`+g.family(fam, 3)+`) }`)

		diffOrdered(t, randomAggStore(rng), randomAggQuery(rng))
	})
}
