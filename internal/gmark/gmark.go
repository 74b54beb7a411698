// Package gmark is a schema-driven generator of graph instances and query
// workloads in the spirit of the gMark generator (Bagan et al., TKDE 2017)
// that the paper used for the chain/cycle experiment of Section 5.1. It
// implements the Bib use case: a bibliographical schema over researchers,
// papers, journals, conferences, and universities, plus chain- and
// cycle-shaped conjunctive-query workloads of configurable length.
package gmark

import (
	"fmt"
	"math/rand"
	"strings"

	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
)

// NodeType enumerates the Bib schema's node types.
type NodeType int

// Bib node types.
const (
	Researcher NodeType = iota
	Paper
	Journal
	Conference
	University
	numTypes
)

var typeNames = [...]string{"researcher", "paper", "journal", "conference", "university"}

// String names the node type.
func (t NodeType) String() string { return typeNames[t] }

// proportions of the node budget per type, mirroring the Bib use case.
var proportions = [...]float64{0.30, 0.58, 0.05, 0.05, 0.02}

// PredicateSpec describes one edge type of the schema.
type PredicateSpec struct {
	Name     string
	From, To NodeType
	// AvgOut is the mean out-degree of source nodes carrying the edge.
	AvgOut float64
	// Coverage is the fraction of source nodes that carry the edge.
	Coverage float64
	// Zipf skews target selection toward low-index targets when true
	// (modelling preferential attachment, e.g. highly cited papers).
	Zipf bool
	// Acyclic restricts edges to strictly lower-index targets within the
	// same node type, producing a DAG (e.g. citations go back in time).
	Acyclic bool
}

// BibSchema returns the Bib use case edge types.
func BibSchema() []PredicateSpec {
	return []PredicateSpec{
		{Name: "authoredBy", From: Paper, To: Researcher, AvgOut: 2.5, Coverage: 1.0},
		// Citations form a DAG: papers cite earlier papers (Acyclic).
		// Direction-consistent citation cycles therefore never close,
		// which is what drives relational-engine timeouts on cycle
		// workloads (Section 5.1).
		{Name: "cites", From: Paper, To: Paper, AvgOut: 3.0, Coverage: 0.9, Zipf: true, Acyclic: true},
		{Name: "publishedIn", From: Paper, To: Journal, AvgOut: 1.0, Coverage: 0.6},
		{Name: "presentedAt", From: Paper, To: Conference, AvgOut: 1.0, Coverage: 0.4},
		{Name: "affiliatedWith", From: Researcher, To: University, AvgOut: 1.0, Coverage: 0.95},
		{Name: "knows", From: Researcher, To: Researcher, AvgOut: 2.0, Coverage: 0.8, Zipf: true},
		{Name: "editorOf", From: Researcher, To: Journal, AvgOut: 1.0, Coverage: 0.05},
	}
}

// Graph is a generated instance: the frozen query-ready Snapshot, the
// dictionary of schema predicates, and per-type node ranges. The builder
// store used during generation is discarded once frozen, so a Graph
// holds one copy of the data.
type Graph struct {
	// Snapshot is the immutable index built at generation time; engines
	// and the eval package query it (concurrently, if desired).
	Snapshot *rdf.Snapshot
	PredID   map[string]rdf.ID
	Nodes    [numTypes][]rdf.ID
	Schema   []PredicateSpec
	N        int
	Triples  int
}

// Config controls instance generation.
type Config struct {
	// Nodes is the total node budget (the paper used 100k).
	Nodes int
	Seed  int64
}

// Generate builds a Bib instance of the requested size.
func Generate(cfg Config) *Graph {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 10000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Graph{PredID: map[string]rdf.ID{}, Schema: BibSchema(), N: cfg.Nodes}
	store := rdf.NewStore()
	iri := func(t NodeType, i int) string {
		return fmt.Sprintf("http://gmark.bib/%s/%d", typeNames[t], i)
	}
	for t := NodeType(0); t < numTypes; t++ {
		cnt := int(float64(cfg.Nodes) * proportions[t])
		if cnt < 2 {
			cnt = 2
		}
		for i := 0; i < cnt; i++ {
			g.Nodes[t] = append(g.Nodes[t], store.Intern(iri(t, i)))
		}
	}
	for _, spec := range g.Schema {
		pid := store.Intern("http://gmark.bib/p/" + spec.Name)
		g.PredID[spec.Name] = pid
		sources := g.Nodes[spec.From]
		targets := g.Nodes[spec.To]
		pick := func(srcIdx int) rdf.ID {
			limit := len(targets)
			if spec.Acyclic {
				limit = srcIdx // only strictly earlier nodes
				if limit == 0 {
					return targets[0] // filtered below via dst==src check
				}
			}
			if spec.Zipf {
				// Quadratic skew toward low indexes.
				f := rng.Float64()
				return targets[int(f*f*float64(limit))]
			}
			return targets[rng.Intn(limit)]
		}
		for srcIdx, src := range sources {
			if rng.Float64() >= spec.Coverage {
				continue
			}
			// Poisson-ish degree: geometric around the mean.
			deg := 1
			for float64(deg) < spec.AvgOut*2 && rng.Float64() < 1-1/spec.AvgOut {
				deg++
			}
			if spec.AvgOut == 1.0 {
				deg = 1
			}
			for d := 0; d < deg; d++ {
				dst := pick(srcIdx)
				if dst == src {
					continue // no self-citations / self-knows
				}
				store.AddIDs(src, pid, dst)
			}
		}
	}
	g.Snapshot = store.Freeze()
	g.Triples = g.Snapshot.Len()
	return g
}

// Step is one edge of a generated query: a schema predicate traversed
// forward or backward.
type Step struct {
	Pred    string
	Inverse bool
}

// QueryShape selects the generated workload shape.
type QueryShape int

// Workload shapes (gMark also supports stars and chain-stars; the paper's
// experiment uses chains and cycles).
const (
	Chain QueryShape = iota
	Cycle
)

// String names the shape.
func (s QueryShape) String() string {
	if s == Cycle {
		return "cycle"
	}
	return "chain"
}

// Query is one generated query: its steps, its conjunctive form (what
// the Figure 3 engines execute), and its SPARQL text.
type Query struct {
	Shape  QueryShape
	Steps  []Step
	CQ     plan.CQ
	SPARQL string
}

// schemaEdge is a typed move in the schema multigraph.
type schemaEdge struct {
	spec    PredicateSpec
	inverse bool
}

func (g *Graph) movesFrom(t NodeType) []schemaEdge {
	var out []schemaEdge
	for _, spec := range g.Schema {
		if spec.From == t {
			out = append(out, schemaEdge{spec, false})
		}
		if spec.To == t {
			out = append(out, schemaEdge{spec, true})
		}
	}
	return out
}

func (e schemaEdge) target() NodeType {
	if e.inverse {
		return e.spec.From
	}
	return e.spec.To
}

// Workload generates count queries of the shape with the given number of
// conjuncts (the workload length of Figure 3's W-3 ... W-8).
func (g *Graph) Workload(shape QueryShape, length, count int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, 0, count)
	for len(out) < count {
		var steps []Step
		if shape == Chain {
			steps = g.randomChain(rng, length)
		} else {
			steps = g.randomCycle(rng, length)
		}
		if steps == nil {
			continue
		}
		out = append(out, g.buildQuery(shape, steps))
	}
	return out
}

// randomChain walks the schema multigraph for length steps, preferring
// forward edges (downstream navigation: paper -> researcher -> university),
// the low-fanout direction typical of gMark's Bib chain workloads.
func (g *Graph) randomChain(rng *rand.Rand, length int) []Step {
	t := NodeType(rng.Intn(int(numTypes)))
	steps := make([]Step, 0, length)
	for i := 0; i < length; i++ {
		moves := g.movesFrom(t)
		if len(moves) == 0 {
			return nil
		}
		var forward []schemaEdge
		for _, mv := range moves {
			if !mv.inverse {
				forward = append(forward, mv)
			}
		}
		var mv schemaEdge
		if len(forward) > 0 && rng.Float64() < 0.85 {
			mv = forward[rng.Intn(len(forward))]
		} else {
			mv = moves[rng.Intn(len(moves))]
		}
		steps = append(steps, Step{Pred: mv.spec.Name, Inverse: mv.inverse})
		t = mv.target()
	}
	return steps
}

// randomCycle walks the schema multigraph and returns to the start type in
// exactly length steps, searching with randomized depth-first descent.
func (g *Graph) randomCycle(rng *rand.Rand, length int) []Step {
	start := NodeType(rng.Intn(int(numTypes)))
	var steps []Step
	var dfs func(t NodeType, left int) bool
	dfs = func(t NodeType, left int) bool {
		if left == 0 {
			return t == start
		}
		moves := g.movesFrom(t)
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		for _, mv := range moves {
			steps = append(steps, Step{Pred: mv.spec.Name, Inverse: mv.inverse})
			if dfs(mv.target(), left-1) {
				return true
			}
			steps = steps[:len(steps)-1]
		}
		return false
	}
	if !dfs(start, length) {
		return nil
	}
	return steps
}

// buildQuery converts steps into the conjunctive query and SPARQL text. Chains use
// variables x0..xk; cycles identify xk with x0.
func (g *Graph) buildQuery(shape QueryShape, steps []Step) Query {
	k := len(steps)
	numVars := k + 1
	if shape == Cycle {
		numVars = k
	}
	varAt := func(i int) int {
		if shape == Cycle {
			return i % k
		}
		return i
	}
	var atoms []plan.Atom
	var sb strings.Builder
	sb.WriteString("ASK { ")
	for i, st := range steps {
		pid := g.PredID[st.Pred]
		from, to := varAt(i), varAt(i+1)
		if st.Inverse {
			from, to = to, from
		}
		atoms = append(atoms, plan.Atom{
			S: plan.V(from),
			P: plan.C(pid),
			O: plan.V(to),
		})
		if i > 0 {
			sb.WriteString(" . ")
		}
		fmt.Fprintf(&sb, "?x%d <http://gmark.bib/p/%s> ?x%d", from, st.Pred, to)
	}
	sb.WriteString(" }")
	return Query{
		Shape:  shape,
		Steps:  steps,
		CQ:     plan.CQ{Atoms: atoms, NumVars: numVars, Ask: true},
		SPARQL: sb.String(),
	}
}
