package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"sparqlog/internal/engine"
	"sparqlog/internal/exec"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// Explain plans and executes the explainable parts of a parsed SPARQL
// query and renders the transcript cmd/sparqlquery's -explain flag
// prints. Two sections can appear:
//
//   - The conjunctive core — every triple pattern of the WHERE clause,
//     joined — planned by the cost-based planner and executed
//     instrumented on the columnar batch pipeline, showing the chosen
//     atom order with estimated vs. actual intermediate row counts and
//     per-operator batch counts.
//   - One section per property-path pattern, showing the compiled
//     automaton (states, transitions, fast-path selection), the search
//     direction chosen from the endpoint shape and statistics, and the
//     estimated vs. actual reached counts of an execution.
//
// Operators outside both (UNION, OPTIONAL, FILTER, ...) do not enter
// either view; when present they are listed in a trailer so the
// transcript is honest about what was and wasn't modeled.
//
// Every execution runs under ctx: when its deadline strikes or it is
// cancelled, Explain returns exec.ErrTimeout and no transcript.
func Explain(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query) (string, error) {
	ev := &evaluator{st: sn, prefixes: q.Prologue.PrefixMap(), ctx: ctx}
	patterns := q.Triples()
	pathPatterns := q.PathPatterns()
	if len(patterns) == 0 && len(pathPatterns) == 0 {
		return "", fmt.Errorf("eval: query has no triple or path patterns to explain")
	}
	var text string
	if len(patterns) > 0 {
		atoms, varNames := ev.compileBGP(patterns)
		cq := engine.CQ{Atoms: atoms, NumVars: len(varNames)}

		ge := &engine.GraphEngine{}
		explained, res := ge.Explain(ctx, sn, cq)
		if res.TimedOut {
			return "", exec.ErrTimeout
		}
		text += explained.Format(sn.TermOf, func(i int) string {
			if i < len(varNames) {
				return "?" + varNames[i]
			}
			return fmt.Sprintf("?v%d", i)
		})
		text += fmt.Sprintf("conjunctive core: %d atoms, %d result rows in %s\n",
			len(atoms), res.Count, res.Duration)
	}
	for _, pp := range pathPatterns {
		section, err := ev.explainPath(pp)
		if err != nil {
			return "", err
		}
		text += section
	}
	mods, err := explainModifiers(ctx, sn, q)
	if err != nil {
		return "", err
	}
	text += mods
	text += explainCacheLine(q)
	if extras := nonConjunctiveOperators(q); len(extras) > 0 {
		text += fmt.Sprintf("note: query also contains %s — only the conjunctive core and property\n"+
			"      paths above were planned and executed; full evaluation may return different results\n",
			strings.Join(extras, ", "))
	}
	if hasSilentService(q) {
		text += "note: SERVICE SILENT present — evaluation falls back to the unjoined input when\n" +
			"      the service body fails; Result.Recovered counts such silent recoveries\n"
	}
	return text, nil
}

// explainModifiers executes the query with the default limits and
// renders the columnar GroupBy/TopK section of the transcript: how many
// input rows were aggregated into how many groups, and which ORDER BY
// strategy ran (bounded heap vs full stable sort). A timeout is
// returned; other failures (row-budget overflow, …) just omit the
// section — the earlier sections already told the plan story.
func explainModifiers(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query) (string, error) {
	res, err := QueryAnswer(ctx, sn, q, Limits{})
	if errors.Is(err, exec.ErrTimeout) {
		return "", err
	}
	if err != nil || res.Modifiers == nil {
		return "", nil
	}
	mi := res.Modifiers
	var b strings.Builder
	if mi.GroupRows > 0 || mi.Groups > 0 {
		fmt.Fprintf(&b, "streaming aggregation: %d rows -> %d groups\n", mi.GroupRows, mi.Groups)
	}
	if mi.TopKMode != "" {
		fmt.Fprintf(&b, "top-k order by: mode=%s, scanned %d rows, kept %d\n",
			mi.TopKMode, mi.TopKScanned, mi.TopKKept)
	}
	return b.String(), nil
}

// explainCacheLine renders the result-cache view of the query: the
// canonical key (sparql.QueryString) a serving layer with Limits.
// Results set would cache this answer under. Alpha-equivalent repeats
// share the key, so the line shows exactly which workload class the
// query's cache entry serves.
func explainCacheLine(q *sparql.Query) string {
	key := sparql.QueryString(q)
	if len(key) > 96 {
		key = key[:93] + "..."
	}
	return fmt.Sprintf("result cache: canonical key %q\n"+
		"      (snapshot-keyed; stored after execution when measured cost reaches the\n"+
		"      admission threshold; errors, truncations and recovered results never cached)\n", key)
}

// hasSilentService reports whether any SERVICE SILENT clause appears in
// the WHERE tree.
func hasSilentService(q *sparql.Query) bool {
	found := false
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		if sg, ok := p.(*sparql.ServiceGraph); ok && sg.Silent {
			found = true
		}
		return !found
	})
	return found
}

// explainPath compiles one path pattern and executes it according to
// its endpoint shape, reporting the automaton, the chosen direction and
// estimated vs. actual reached counts.
func (ev *evaluator) explainPath(pp *sparql.PathPattern) (string, error) {
	render := func(t sparql.Term) string {
		if txt, ok := ev.termText(t); ok {
			return "<" + txt + ">"
		}
		name, _ := varName(t)
		return "?" + name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "property path: %s %s %s\n",
		render(pp.S), sparql.PathString(pp.Path), render(pp.O))
	cp := ev.pathCache().Compile(ev.st, pp.Path, ev.pathResolver())
	for _, line := range strings.Split(strings.TrimRight(cp.Describe(ev.st.TermOf), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}

	lookupConst := func(t sparql.Term) (rdf.ID, bool, bool) {
		txt, isConst := ev.termText(t)
		if !isConst {
			return 0, false, false
		}
		id, known := ev.st.Lookup(txt)
		return id, true, known
	}
	sid, sConst, sKnown := lookupConst(pp.S)
	oid, oConst, oKnown := lookupConst(pp.O)
	if (sConst && !sKnown) || (oConst && !oKnown) {
		b.WriteString("  endpoint constant not in dictionary — no matches\n")
		return b.String(), nil
	}
	check := exec.NewCtx(ev.ctx).Poll
	switch {
	case sConst && oConst:
		dir := cp.Direction(sid, oid)
		holds, err := cp.HoldsCtx(check, sid, oid)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  direction: %s (both ends bound; searching from the rarer end)\n", dir)
		fmt.Fprintf(&b, "  est reach %.0f nodes; holds: %v\n", cp.EstimateReach(dir == "reverse"), holds)
	case sConst:
		reach, err := cp.FromCtx(check, sid)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  direction: forward (subject bound)\n")
		fmt.Fprintf(&b, "  est reach %.0f nodes, actual %d\n", cp.EstimateReach(false), len(reach))
	case oConst:
		reach, err := cp.ToCtx(check, oid)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  direction: reverse (object bound)\n")
		fmt.Fprintf(&b, "  est reach %.0f nodes, actual %d\n", cp.EstimateReach(true), len(reach))
	default:
		// Cap the enumeration: explain only reports the count, so a
		// huge closure must not materialize unbounded pairs here.
		const explainPairCap = 100_000
		pairs, err := cp.PairsCtx(check, explainPairCap)
		if err != nil {
			return "", err
		}
		suffix := ""
		if len(pairs) == explainPairCap {
			suffix = "+ (capped)"
		}
		fmt.Fprintf(&b, "  direction: multi-source sweep (both ends free)\n")
		fmt.Fprintf(&b, "  est reach %.0f nodes per source, actual %d pairs%s\n",
			cp.EstimateReach(false), len(pairs), suffix)
	}
	return b.String(), nil
}

// nonConjunctiveOperators names the WHERE-clause operators that the
// explain transcript does not model, in first-appearance order.
// Property paths are absent: they get their own explain section.
func nonConjunctiveOperators(q *sparql.Query) []string {
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sparql.Walk(q.Where, func(p sparql.Pattern) bool {
		switch p.(type) {
		case *sparql.Union:
			add("UNION")
		case *sparql.Optional:
			add("OPTIONAL")
		case *sparql.MinusGraph:
			add("MINUS")
		case *sparql.Filter:
			add("FILTER")
		case *sparql.Bind:
			add("BIND")
		case *sparql.InlineData:
			add("VALUES")
		case *sparql.SubSelect:
			add("subquery")
		case *sparql.GraphGraph:
			add("GRAPH")
		case *sparql.ServiceGraph:
			add("SERVICE")
		}
		return true
	})
	return names
}
