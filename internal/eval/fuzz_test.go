package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// FuzzExecDifferential drives the columnar executor against the legacy
// materialized path on randomized stores and operator trees (BGPs with
// repeated variables, OPTIONAL, UNION, MINUS, FILTER, EXISTS, VALUES,
// property paths, DISTINCT, ASK). Any divergence in errors, the ASK
// answer, the projection, or the solution multiset is a finding.
func FuzzExecDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		f.Add(seed)
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
		src := randomQuery(rng, nNodes, nPreds)

		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("generator produced unparsable query %q: %v", src, err)
		}
		columnar, cerr := QueryWithLimits(sn, q, Limits{})
		legacy, lerr := QueryWithLimits(sn, q, Limits{legacy: true})
		if (cerr == nil) != (lerr == nil) {
			t.Fatalf("error divergence on %q: columnar=%v legacy=%v", src, cerr, lerr)
		}
		if cerr != nil {
			return
		}
		if columnar.Bool != legacy.Bool {
			t.Fatalf("ASK diverges on %q: columnar=%v legacy=%v", src, columnar.Bool, legacy.Bool)
		}
		if strings.Join(columnar.Vars, ",") != strings.Join(legacy.Vars, ",") {
			t.Fatalf("vars diverge on %q: %v vs %v", src, columnar.Vars, legacy.Vars)
		}
		a, b := sortedRows(columnar), sortedRows(legacy)
		if len(a) != len(b) {
			t.Fatalf("row counts diverge on %q: columnar=%d legacy=%d", src, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rows diverge on %q at %d:\ncolumnar: %q\nlegacy:   %q", src, i, a[i], b[i])
			}
		}
	})
}
