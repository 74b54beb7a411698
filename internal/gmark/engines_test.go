package gmark_test

import (
	"testing"
	"time"

	"sparqlog/internal/engine"
	"sparqlog/internal/gmark"
)

// The Figure 3 engines import this package, so the test that runs its
// workloads on them sits in the external test package.

func TestWorkloadsRunOnBothEngines(t *testing.T) {
	g := gmark.Generate(gmark.Config{Nodes: 800, Seed: 5})
	chains := g.Workload(gmark.Chain, 3, 5, 11)
	var cqs []engine.CQ
	for _, q := range chains {
		cqs = append(cqs, q.CQ)
	}
	bg := engine.RunWorkload(&engine.GraphEngine{}, g.Snapshot, cqs, 2*time.Second)
	pg := engine.RunWorkload(&engine.RelationalEngine{}, g.Snapshot, cqs, 2*time.Second)
	if bg.Queries != 5 || pg.Queries != 5 {
		t.Fatalf("queries = %d/%d", bg.Queries, pg.Queries)
	}
}
