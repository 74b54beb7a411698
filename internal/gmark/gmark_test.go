package gmark

import (
	"testing"

	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

func TestGenerateDeterministic(t *testing.T) {
	g1 := Generate(Config{Nodes: 500, Seed: 42})
	g2 := Generate(Config{Nodes: 500, Seed: 42})
	if g1.Triples != g2.Triples {
		t.Errorf("same seed produced %d vs %d triples", g1.Triples, g2.Triples)
	}
	g3 := Generate(Config{Nodes: 500, Seed: 43})
	if g3.Triples == g1.Triples {
		t.Log("different seeds produced same triple count (possible but unlikely)")
	}
	if g1.Triples == 0 {
		t.Fatal("no triples generated")
	}
}

func TestGenerateSchemaConformance(t *testing.T) {
	g := Generate(Config{Nodes: 400, Seed: 1})
	// Every cites edge must connect two papers.
	inType := func(id uint32, tp NodeType) bool {
		for _, n := range g.Nodes[tp] {
			if n == id {
				return true
			}
		}
		return false
	}
	pid := g.PredID["cites"]
	objs, subs := g.Snapshot.PredicateEdges(pid)
	for i := range subs {
		if !inType(subs[i], Paper) || !inType(objs[i], Paper) {
			t.Fatal("cites edge violates schema")
		}
	}
	aid := g.PredID["authoredBy"]
	objs, subs = g.Snapshot.PredicateEdges(aid)
	for i := range subs {
		if !inType(subs[i], Paper) || !inType(objs[i], Researcher) {
			t.Fatal("authoredBy edge violates schema")
		}
	}
}

func TestChainWorkloadShape(t *testing.T) {
	g := Generate(Config{Nodes: 300, Seed: 2})
	ws := g.Workload(Chain, 4, 20, 7)
	if len(ws) != 20 {
		t.Fatalf("workload size = %d, want 20", len(ws))
	}
	for _, q := range ws {
		if len(q.CQ.Atoms) != 4 || q.CQ.NumVars != 5 {
			t.Fatalf("chain query atoms/vars = %d/%d", len(q.CQ.Atoms), q.CQ.NumVars)
		}
		// The SPARQL text must parse and classify as a chain.
		pq, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Fatalf("generated SPARQL does not parse: %v\n%s", err, q.SPARQL)
		}
		cg, _ := shapes.CanonicalGraph(pq.Triples(), shapes.Options{})
		if !cg.IsChain() {
			t.Errorf("generated chain is not a chain: %s", q.SPARQL)
		}
	}
}

func TestCycleWorkloadShape(t *testing.T) {
	g := Generate(Config{Nodes: 300, Seed: 3})
	for _, k := range []int{3, 4, 5, 6, 7, 8} {
		ws := g.Workload(Cycle, k, 10, int64(k))
		if len(ws) != 10 {
			t.Fatalf("cycle workload size = %d", len(ws))
		}
		for _, q := range ws {
			if len(q.CQ.Atoms) != k || q.CQ.NumVars != k {
				t.Fatalf("cycle query atoms/vars = %d/%d, want %d/%d", len(q.CQ.Atoms), q.CQ.NumVars, k, k)
			}
			pq, err := sparql.Parse(q.SPARQL)
			if err != nil {
				t.Fatalf("generated SPARQL does not parse: %v", err)
			}
			cg, _ := shapes.CanonicalGraph(pq.Triples(), shapes.Options{})
			if !cg.IsCycle() {
				t.Errorf("generated cycle (k=%d) is not a cycle: %s", k, q.SPARQL)
			}
		}
	}
}

func TestCycleStepsTypeCheck(t *testing.T) {
	g := Generate(Config{Nodes: 200, Seed: 9})
	ws := g.Workload(Cycle, 5, 5, 13)
	for _, q := range ws {
		// Walk the steps through the schema and confirm closure.
		typeOf := map[string][2]NodeType{}
		for _, spec := range g.Schema {
			typeOf[spec.Name] = [2]NodeType{spec.From, spec.To}
		}
		var cur, start NodeType
		for i, st := range q.Steps {
			ft := typeOf[st.Pred]
			from, to := ft[0], ft[1]
			if st.Inverse {
				from, to = to, from
			}
			if i == 0 {
				start = from
				cur = from
			}
			if cur != from {
				t.Fatalf("step %d type mismatch: at %v, step needs %v", i, cur, from)
			}
			cur = to
		}
		if cur != start {
			t.Fatal("cycle does not close in the schema")
		}
	}
}
