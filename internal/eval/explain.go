package eval

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"sparqlog/internal/exec"
	"sparqlog/internal/plan"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// Explain executes q once, as QueryAnswer does with default limits and
// no result cache — the production compiler and the columnar executor —
// and renders the operator tree that execution pulled, one line per
// operator: cmd/sparqlquery's -explain transcript. A line shows
//
//   - the operator and what it evaluates: a triple pattern, a property
//     path, a FILTER expression, a BIND, VALUES, GRAPH or SERVICE block,
//     or a subquery;
//   - the planner's estimate of the rows after a join, where the planner
//     ordered it, and the variables that join binds first;
//   - the rows and batches the operator emitted (exec.OpStats).
//
// Lines come in pull order: an operator's input precedes it, and the
// subtrees it runs beside its input (OPTIONAL's inner pipeline, UNION's
// branches, MINUS's removal set, SERVICE SILENT's body) follow it,
// indented. A path operator adds its compiled automaton, its estimated
// reach and the evaluations it ran. The transcript ends with the
// answer's size, the execution's time, probes and silent SERVICE
// recoveries, and the result-cache key.
//
// The execution runs under ctx. When it fails — its deadline strikes
// (exec.ErrTimeout), a row budget overflows — Explain returns the error
// with the transcript of the tree as far as it ran.
func Explain(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query) (string, error) {
	x := &explainTrace{src: map[exec.Operator]any{}, steps: map[*sparql.TriplePattern]planStep{}}
	ev := &evaluator{st: sn, prefixes: q.Prologue.PrefixMap(), lim: Limits{MaxRows: DefaultMaxRows}, ctx: ctx, explain: x}
	start := time.Now()
	res, err := ev.run(q)
	elapsed := time.Since(start)

	var b strings.Builder
	if x.root != nil {
		fmt.Fprintf(&b, "%10s %10s %8s  %s\n", "est rows", "rows", "batches", "operator")
		x.write(&b, sn, x.root, "")
	}
	switch {
	case err != nil:
		fmt.Fprintf(&b, "error: %v\n", err)
	case q.Type == sparql.AskQuery:
		fmt.Fprintf(&b, "answer: %v\n", res.Bool)
	default:
		fmt.Fprintf(&b, "answer: %d rows\n", res.Answer.Len())
	}
	fmt.Fprintf(&b, "executed once in %s: %d probes, %d silent SERVICE recoveries\n", elapsed, ev.probes, ev.recovered)
	b.WriteString(explainCacheLine(q))
	return b.String(), err
}

// explainTrace is what Explain's execution records beyond the
// operators' own stats. Only Explain sets evaluator.explain, so on
// every other execution the compiler records nothing.
type explainTrace struct {
	// top is the outermost execution and root the operator it drains.
	top  *colExec
	root exec.Operator
	// src maps an operator to the query part it was compiled from: a
	// pattern, a FILTER expression, a HAVING constraint (by its address
	// in the query), or a fixed label.
	src map[exec.Operator]any
	// steps holds the planner's view of every triple pattern it ordered.
	steps map[*sparql.TriplePattern]planStep
}

// planStep is the planner's view of one join: the estimated rows after
// it, and the variables it binds first.
type planStep struct {
	est   float64
	binds []string
}

// planned records the plan of one ordered run of triple patterns;
// variables bound before the run bind nowhere in it.
func (x *explainTrace) planned(run []*sparql.TriplePattern, p *plan.Plan, atoms []plan.Atom, names []string, initial []bool) {
	bound := slices.Clone(initial)
	for k, ai := range p.Order {
		var vars []string
		for _, r := range [3]plan.TermRef{atoms[ai].S, atoms[ai].P, atoms[ai].O} {
			if r.IsVar && !bound[r.Var] {
				bound[r.Var] = true
				vars = append(vars, varLabel(names[r.Var]))
			}
		}
		x.steps[run[ai]] = planStep{est: p.Rows[k], binds: vars}
	}
}

// explainLabelMax bounds one operator label, so a long FILTER or
// subquery keeps its line readable.
const explainLabelMax = 120

// write renders op's subtree in pull order at the given indent.
func (x *explainTrace) write(b *strings.Builder, sn *rdf.Snapshot, op exec.Operator, indent string) {
	info := exec.Inspect(op)
	if info.In != nil {
		x.write(b, sn, info.In, indent)
	}
	est := "-"
	if tp, ok := x.src[op].(*sparql.TriplePattern); ok {
		if st, ok := x.steps[tp]; ok {
			est = formatEst(st.est)
		}
	}
	st := op.Stats()
	fmt.Fprintf(b, "%10s %10d %8d  %s%s\n", est, st.Rows, st.Batches, indent, clip(x.label(op, info), explainLabelMax))
	if pa := info.Path; pa != nil {
		detail := indent + strings.Repeat(" ", 34)
		for _, line := range strings.Split(strings.TrimRight(pa.Describe(sn.TermOf), "\n"), "\n") {
			b.WriteString(detail + line + "\n")
		}
		reverse := info.Runs[exec.PathReverse] > 0 && info.Runs[exec.PathForward] == 0
		fmt.Fprintf(b, "%sevaluation: %s; est reach %.0f nodes per evaluation\n",
			detail, info.Runs, pa.EstimateReach(reverse))
	}
	for _, side := range info.Sides {
		x.write(b, sn, side, indent+"    ")
	}
}

// label names op by the query part it was compiled from, falling back
// to what exec knows of it.
func (x *explainTrace) label(op exec.Operator, info exec.OpInfo) string {
	switch s := x.src[op].(type) {
	case string:
		return s
	case *sparql.TriplePattern:
		label := "join " + sparql.PatternString(s)
		if binds := x.steps[s].binds; len(binds) > 0 {
			label += "  binds " + strings.Join(binds, " ")
		}
		return label
	case *sparql.PathPattern:
		return "path " + sparql.PatternString(s)
	case sparql.Expr:
		return "filter " + sparql.ExprString(s)
	case *sparql.Expr:
		return "having " + sparql.ExprString(*s)
	case *sparql.Bind, *sparql.InlineData:
		return sparql.PatternString(s.(sparql.Pattern))
	case *sparql.GraphGraph:
		return "GRAPH " + sparql.ExprString(&sparql.TermExpr{Term: s.Name})
	case *sparql.ServiceGraph:
		return "SERVICE SILENT " + sparql.ExprString(&sparql.TermExpr{Term: s.Name}) + ": " + info.Label
	case *sparql.SubSelect:
		return "subquery " + sparql.PatternString(s)
	}
	return info.Label
}

// varLabel renders a binding name as the query wrote it.
func varLabel(name string) string {
	if strings.HasPrefix(name, "_:") {
		return name
	}
	return "?" + name
}

// formatEst renders a cardinality estimate compactly, in the width of
// the estimate column.
func formatEst(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3g", v)
	case v >= 100 || v == float64(int64(v)):
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// clip shortens s to at most n bytes, cutting on a rune boundary and
// marking the cut with "...".
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n - 3
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}

// explainCacheLine renders the result-cache view of the query: the
// canonical key (sparql.QueryString) a serving layer with Limits.
// Results set would cache this answer under. Alpha-equivalent repeats
// share the key, so the line shows exactly which workload class the
// query's cache entry serves.
func explainCacheLine(q *sparql.Query) string {
	return fmt.Sprintf("result cache: canonical key %q\n"+
		"      (snapshot-keyed; stored after execution when measured cost reaches the\n"+
		"      admission threshold; errors, truncations and recovered results never cached)\n",
		clip(sparql.QueryString(q), 96))
}
