package loggen

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"sparqlog/internal/sparql"
)

// Dataset is one generated query log.
type Dataset struct {
	Name    string
	Profile Profile
	// Entries are raw log lines: mostly SPARQL text, plus noise and
	// malformed queries per the profile.
	Entries []string
}

// CorpusSpec sizes and seeds one log of the calibrated corpus.
type CorpusSpec struct {
	Profile Profile
	N       int
	Seed    int64
}

// CorpusSpecs returns the per-log generation parameters for the corpus at
// the given scale (fraction of the paper's log sizes; 0.0001 yields a
// ~18k-query corpus). Small logs (WikiData17) are kept at full size so
// their distinctive statistics survive scaling.
func CorpusSpecs(scale float64, seed int64) []CorpusSpec {
	profs := Profiles()
	out := make([]CorpusSpec, 0, len(profs))
	for i, p := range profs {
		n := int(float64(p.PaperTotal) * scale)
		if p.PaperTotal < 1000 {
			n = p.PaperTotal
		}
		if n < 50 {
			n = 50
		}
		out = append(out, CorpusSpec{Profile: p, N: n, Seed: seed + int64(i)*7919})
	}
	return out
}

// GenerateCorpus generates all 13 logs at the given scale, materialized
// in memory. To avoid materializing the logs, iterate CorpusSpecs and
// use GenerateStream instead (its duplicate pool still grows with the
// distinct-query count).
func GenerateCorpus(scale float64, seed int64) []Dataset {
	specs := CorpusSpecs(scale, seed)
	out := make([]Dataset, 0, len(specs))
	for _, s := range specs {
		out = append(out, Generate(s.Profile, s.N, s.Seed))
	}
	return out
}

// Generate produces one log of n entries under the profile, materialized
// in memory. It emits the exact sequence GenerateStream does for the same
// arguments.
func Generate(p Profile, n int, seed int64) Dataset {
	ds := Dataset{Name: p.Name, Profile: p}
	ds.Entries = make([]string, 0, n)
	GenerateStream(p, n, seed, func(e string) bool {
		ds.Entries = append(ds.Entries, e)
		return true
	})
	return ds
}

// GenerateStream produces one log of n entries under the profile,
// delivering each entry to emit as it is generated instead of holding the
// log in memory; emit returning false stops generation early (e.g. on a
// write error). (The duplicate-emission pool still retains one copy of
// each distinct valid query, the same floor the analyzer's dedup pays.)
func GenerateStream(p Profile, n int, seed int64, emit func(string) bool) {
	g := newGenerator(p, seed)
	emitted := 0
	stopped := false
	send := func(e string) {
		if !emit(e) {
			stopped = true
		}
		emitted++
	}
	invalidRate := 0.0
	if p.PaperTotal > 0 {
		invalidRate = 1 - float64(p.PaperValid)/float64(p.PaperTotal)
	}
	dupRate := 0.0
	if p.PaperValid > 0 {
		dupRate = 1 - float64(p.PaperUnique)/float64(p.PaperValid)
	}
	var valid []string // pool for duplicate re-emission
	var streakBase string
	streakLive := false
	for emitted < n && !stopped {
		r := g.rng.Float64()
		switch {
		case r < p.NoiseRate:
			send(g.noiseEntry())
			continue
		case r < p.NoiseRate+invalidRate:
			send(g.invalidEntry())
			continue
		}
		if streakLive && g.rng.Float64() < p.StreakContinue {
			streakBase = g.mutate(streakBase)
			send(streakBase)
			valid = append(valid, streakBase)
			continue
		}
		streakLive = false
		if len(valid) > 0 && g.rng.Float64() < dupRate {
			send(valid[g.rng.Intn(len(valid))])
			continue
		}
		q := g.query()
		send(q)
		valid = append(valid, q)
		if g.rng.Float64() < p.StreakRate {
			streakBase = q
			streakLive = true
		}
	}
}

// WriteLog streams one generated log to w, one entry per line, through an
// internal buffer. Generation stops at the first write error, which is
// returned.
func WriteLog(w io.Writer, p Profile, n int, seed int64) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var err error
	GenerateStream(p, n, seed, func(e string) bool {
		if _, err = bw.WriteString(e); err != nil {
			return false
		}
		err = bw.WriteByte('\n')
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// generator synthesizes individual queries.
type generator struct {
	p    Profile
	rng  *rand.Rand
	seq  int
	pred []string
}

var basePredicates = []string{
	"dbo:birthPlace", "dbo:deathPlace", "dbo:nationality", "dbo:genre",
	"dbo:author", "dbo:starring", "dbo:director", "dbo:location",
	"foaf:name", "foaf:mbox", "foaf:homepage", "foaf:knows",
	"rdfs:label", "rdfs:comment", "dc:title", "dc:creator",
	"dbo:populationTotal", "dbo:areaTotal", "dbo:capital", "dbo:country",
	"skos:broader", "skos:subject", "owl:sameAs", "dbo:abstract",
}

var prefixDecls = []sparql.PrefixDecl{
	{Name: "dbo", IRI: "http://dbpedia.org/ontology/"},
	{Name: "dbr", IRI: "http://dbpedia.org/resource/"},
	{Name: "foaf", IRI: "http://xmlns.com/foaf/0.1/"},
	{Name: "rdfs", IRI: "http://www.w3.org/2000/01/rdf-schema#"},
	{Name: "dc", IRI: "http://purl.org/dc/elements/1.1/"},
	{Name: "skos", IRI: "http://www.w3.org/2004/02/skos/core#"},
	{Name: "owl", IRI: "http://www.w3.org/2002/07/owl#"},
}

func newGenerator(p Profile, seed int64) *generator {
	return &generator{p: p, rng: rand.New(rand.NewSource(seed)), pred: basePredicates}
}

func (g *generator) noiseEntry() string {
	forms := []string{
		"GET /resource/Entity%d HTTP/1.1",
		"POST /sparql HTTP/1.1 400 Bad Request",
		"# comment line %d in log",
		"{\"event\":\"ping\",\"id\":%d}",
	}
	g.seq++
	return fmt.Sprintf(forms[g.rng.Intn(len(forms))], g.seq)
}

func (g *generator) invalidEntry() string {
	// A truncated query: contains a query-form keyword (so cleaning keeps
	// it) but fails to parse.
	q := g.query()
	if len(q) > 4 {
		cut := len(q) - 1 - g.rng.Intn(3)
		return q[:cut]
	}
	return "SELECT * WHERE {"
}

// mutate performs a small edit preserving >= 75% similarity: incrementing
// a digit run, swapping one predicate, or (rarely) adjusting a LIMIT. The
// result stays parseable.
func (g *generator) mutate(q string) string {
	incDigit := func() (string, bool) {
		for i := len(q) - 1; i >= 0; i-- {
			if q[i] >= '0' && q[i] <= '8' {
				return q[:i] + string(q[i]+1) + q[i+1:], true
			}
		}
		return q, false
	}
	swapPred := func() (string, bool) {
		for _, from := range g.pred {
			if strings.Contains(q, from+" ") {
				to := g.pred[g.rng.Intn(len(g.pred))]
				if to != from {
					return strings.Replace(q, from+" ", to+" ", 1), true
				}
			}
		}
		return q, false
	}
	switch g.rng.Intn(10) {
	case 0:
		// Occasionally refine an existing LIMIT (mirrors a user paging
		// or widening a result window).
		if strings.Contains(q, " LIMIT ") {
			return strings.Replace(q, " LIMIT ", " LIMIT 1", 1)
		}
		if m, ok := incDigit(); ok {
			return m
		}
	case 1, 2, 3:
		if m, ok := swapPred(); ok {
			return m
		}
		if m, ok := incDigit(); ok {
			return m
		}
	default:
		if m, ok := incDigit(); ok {
			return m
		}
		if m, ok := swapPred(); ok {
			return m
		}
	}
	return q + " LIMIT 10"
}

func (g *generator) entity() sparql.Term {
	g.seq++
	return sparql.Term{Kind: sparql.TermIRI, Value: fmt.Sprintf("dbr:Entity%d", g.seq), PrefixedForm: true}
}

func (g *generator) predicate() sparql.Term {
	return sparql.Term{Kind: sparql.TermIRI, Value: g.pred[g.rng.Intn(len(g.pred))], PrefixedForm: true}
}

func (g *generator) chance(p float64) bool { return g.rng.Float64() < p }

// query synthesizes one full query and serializes it.
func (g *generator) query() string {
	q := g.buildQuery()
	return q.String()
}

func (g *generator) buildQuery() *sparql.Query {
	p := g.p
	q := &sparql.Query{Mods: sparql.Modifiers{Limit: -1, Offset: -1}}
	q.Prologue.Prefixes = g.usedPrefixes()
	r := g.rng.Float64()
	switch {
	case r < p.AskRate:
		q.Type = sparql.AskQuery
	case r < p.AskRate+p.DescribeRate:
		q.Type = sparql.DescribeQuery
	case r < p.AskRate+p.DescribeRate+p.ConstructRate:
		q.Type = sparql.ConstructQuery
	default:
		q.Type = sparql.SelectQuery
	}
	if q.Type == sparql.DescribeQuery {
		q.DescribeTerms = []sparql.Term{g.entity()}
		if !g.chance(p.BodylessDescribe) && g.chance(0.1) {
			body, _ := g.body(1 + g.rng.Intn(2))
			q.Where = body
		}
		g.modifiers(q)
		return q
	}
	nTriples := g.tripleCount()
	body, vars := g.body(nTriples)
	q.Where = body
	if q.Type == sparql.ConstructQuery {
		q.Template = collectTriples(body)
		if len(q.Template) == 0 {
			q.Template = []*sparql.TriplePattern{{
				S: sparql.Variable("s"), P: g.predicate(), O: sparql.Variable("o"),
			}}
			q.Where = &sparql.Group{Elems: []sparql.Pattern{q.Template[0]}}
		}
		g.modifiers(q)
		return q
	}
	// ASK queries over concrete triples (no variables) are common: the
	// paper notes most ASK queries do not use variables.
	if q.Type == sparql.AskQuery && g.chance(0.6) {
		q.Where = &sparql.Group{Elems: []sparql.Pattern{
			&sparql.TriplePattern{S: g.entity(), P: g.predicate(), O: g.entity()},
		}}
		g.modifiers(q)
		return q
	}
	// Projection and SELECT clause.
	if q.Type == sparql.SelectQuery {
		g.selectClause(q, vars)
	}
	g.modifiers(q)
	return q
}

func (g *generator) usedPrefixes() []sparql.PrefixDecl {
	// Most queries declare the prefixes they use; a fraction declares the
	// full boilerplate block (typical of endpoint UIs).
	if g.chance(0.5) {
		return append([]sparql.PrefixDecl{}, prefixDecls...)
	}
	return []sparql.PrefixDecl{prefixDecls[0], prefixDecls[1]}
}

func (g *generator) tripleCount() int {
	r := g.rng.Float64()
	acc := 0.0
	for i, p := range g.p.TripleDist {
		acc += p
		if r < acc {
			return i
		}
	}
	// Tail beyond 11: geometric.
	n := 12
	for g.chance(0.7) && n < 200 {
		n += 1 + g.rng.Intn(8)
	}
	return n
}

// body builds the WHERE group: a shaped set of triples plus operator
// decorations. It returns the group and the variables introduced.
func (g *generator) body(nTriples int) (*sparql.Group, []string) {
	grp := &sparql.Group{}
	var vars []string
	newVar := func() string {
		v := fmt.Sprintf("v%d", len(vars))
		vars = append(vars, v)
		return v
	}
	if nTriples == 0 {
		return grp, vars
	}
	triples := g.shapedTriples(nTriples, newVar)
	// Decide operator decorations.
	p := g.p
	useOpt := g.chance(p.OptRate) && len(triples) >= 2
	useUnion := g.chance(p.UnionRate) && len(triples) >= 2
	useGraph := g.chance(p.GraphRate)
	useFilter := g.chance(p.FilterRate) && len(vars) > 0
	if len(triples) >= 3 && g.chance(p.ComboRate) {
		// Correlated complex queries: the "A, O, U, F" row of Table 3.
		useOpt, useUnion, useFilter = true, true, true
	}
	usePath := g.chance(p.PathRate)
	useSub := g.chance(p.SubqueryRate) && len(triples) >= 2
	useService := g.chance(p.ServiceRate)
	useBind := g.chance(p.BindRate) && len(vars) > 0
	useMinus := g.chance(p.MinusRate)
	useNotExists := g.chance(p.NotExistsRate) && len(vars) > 0

	if usePath && len(triples) > 0 {
		// Replace the first triple with a property-path pattern.
		t := triples[0]
		pp := &sparql.PathPattern{S: t.S, Path: g.pathExpr(), O: t.O}
		grp.Elems = append(grp.Elems, pp)
		triples = triples[1:]
	}
	var main []*sparql.TriplePattern
	var optPart []*sparql.TriplePattern
	var unionPart []*sparql.TriplePattern
	rest := triples
	if useOpt {
		cut := 1 + g.rng.Intn(len(rest)/2+1)
		optPart = rest[len(rest)-cut:]
		rest = rest[:len(rest)-cut]
	}
	if useUnion && len(rest) >= 2 {
		unionPart = rest[len(rest)-1:]
		rest = rest[:len(rest)-1]
	}
	main = rest
	for _, t := range main {
		grp.Elems = append(grp.Elems, t)
	}
	if useSub && len(main) > 0 {
		// Wrap an extra fresh triple in a subquery sharing one variable.
		v := vars[g.rng.Intn(len(vars))]
		sub := &sparql.Query{
			Type:   sparql.SelectQuery,
			Mods:   sparql.Modifiers{Limit: 10, HasLimit: true, Offset: -1},
			Select: []sparql.SelectItem{{Var: sparql.Variable(v)}},
			Where: &sparql.Group{Elems: []sparql.Pattern{
				&sparql.TriplePattern{S: sparql.Variable(v), P: g.predicate(), O: g.entity()},
			}},
		}
		grp.Elems = append(grp.Elems, &sparql.SubSelect{Query: sub})
	}
	if len(unionPart) > 0 {
		left := &sparql.Group{Elems: []sparql.Pattern{unionPart[0]}}
		altTriple := &sparql.TriplePattern{S: unionPart[0].S, P: g.predicate(), O: unionPart[0].O}
		right := &sparql.Group{Elems: []sparql.Pattern{altTriple}}
		grp.Elems = append(grp.Elems, &sparql.Union{Left: left, Right: right})
	}
	if len(optPart) > 0 {
		inner := &sparql.Group{}
		for _, t := range optPart {
			inner.Elems = append(inner.Elems, t)
		}
		if g.chance(g.p.NotWellDesignedRate) && len(main) > 0 {
			// Violate Definition 5.3: the OPTIONAL introduces a variable
			// that also occurs after the OPTIONAL block.
			leak := newVar()
			inner.Elems = append(inner.Elems, &sparql.TriplePattern{
				S: optPart[0].S, P: g.predicate(), O: sparql.Variable(leak),
			})
			grp.Elems = append(grp.Elems, &sparql.Optional{Inner: inner})
			grp.Elems = append(grp.Elems, &sparql.TriplePattern{
				S: main[0].S, P: g.predicate(), O: sparql.Variable(leak),
			})
		} else if g.chance(g.p.WideInterfaceRate) && len(main) > 0 && len(optPart) > 0 {
			// Interface width 2: the OPTIONAL repeats two main variables.
			inner2 := &sparql.Group{Elems: []sparql.Pattern{
				&sparql.TriplePattern{S: main[0].S, P: g.predicate(), O: main[0].O},
			}}
			grp.Elems = append(grp.Elems, &sparql.Optional{Inner: inner2})
		} else {
			grp.Elems = append(grp.Elems, &sparql.Optional{Inner: inner})
		}
	}
	if useFilter {
		grp.Elems = append(grp.Elems, &sparql.Filter{Constraint: g.filterExpr(vars)})
	}
	if useBind {
		v := vars[g.rng.Intn(len(vars))]
		grp.Elems = append(grp.Elems, &sparql.Bind{
			Expr: &sparql.FuncCall{Name: "STR", Args: []sparql.Expr{&sparql.TermExpr{Term: sparql.Variable(v)}}},
			Var:  sparql.Variable(newVar()),
		})
	}
	if useMinus && len(vars) > 0 {
		v := vars[0]
		grp.Elems = append(grp.Elems, &sparql.MinusGraph{Inner: &sparql.Group{Elems: []sparql.Pattern{
			&sparql.TriplePattern{S: sparql.Variable(v), P: g.predicate(), O: g.entity()},
		}}})
	}
	if useNotExists {
		v := vars[g.rng.Intn(len(vars))]
		// A small share of EXISTS constraints is positive (Table 2 finds
		// plain Exists two orders of magnitude rarer than Not Exists).
		grp.Elems = append(grp.Elems, &sparql.Filter{Constraint: &sparql.ExistsExpr{
			Not: !g.chance(0.05),
			Pattern: &sparql.Group{Elems: []sparql.Pattern{
				&sparql.TriplePattern{S: sparql.Variable(v), P: g.predicate(), O: g.entity()},
			}},
		}})
	}
	if useService {
		inner := &sparql.Group{Elems: []sparql.Pattern{
			&sparql.TriplePattern{S: sparql.Variable("svc"), P: g.predicate(), O: sparql.Variable("svcv")},
		}}
		grp.Elems = append(grp.Elems, &sparql.ServiceGraph{
			Name:  sparql.IRI("http://example.org/sparql"),
			Inner: inner,
		})
	}
	if useGraph {
		inner := grp
		outer := &sparql.Group{Elems: []sparql.Pattern{
			&sparql.GraphGraph{Name: sparql.IRI("http://graphs.example.org/g1"), Inner: inner},
		}}
		return outer, vars
	}
	return grp, vars
}

// shapedTriples builds n triples whose canonical graph follows the
// profile's shape mix.
func (g *generator) shapedTriples(n int, newVar func() string) []*sparql.TriplePattern {
	p := g.p
	termFor := func(v string) sparql.Term { return sparql.Variable(v) }
	leafTerm := func() sparql.Term {
		if g.chance(p.ConstantObjectRate) {
			if g.chance(0.3) {
				g.seq++
				return sparql.Term{Kind: sparql.TermLiteral, Value: fmt.Sprintf("value %d", g.seq)}
			}
			return g.entity()
		}
		return sparql.Variable(newVar())
	}
	predTerm := func() sparql.Term {
		if g.chance(p.VarPredicateRate) {
			return sparql.Variable(newVar())
		}
		return g.predicate()
	}
	var out []*sparql.TriplePattern
	if n == 1 {
		s := sparql.Variable(newVar())
		out = append(out, &sparql.TriplePattern{S: s, P: predTerm(), O: leafTerm()})
		return out
	}
	total := p.ShapeChain + p.ShapeStar + p.ShapeTree + p.ShapeFlower + p.ShapeCycle
	if total <= 0 {
		total = 1
	}
	r := g.rng.Float64() * total
	switch {
	case r < p.ShapeChain:
		cur := newVar()
		for i := 0; i < n; i++ {
			next := newVar()
			o := termFor(next)
			if i == n-1 && g.chance(p.ConstantObjectRate) {
				o = leafTerm()
			}
			out = append(out, &sparql.TriplePattern{S: termFor(cur), P: predTerm(), O: o})
			cur = next
		}
	case r < p.ShapeChain+p.ShapeStar:
		center := newVar()
		for i := 0; i < n; i++ {
			out = append(out, &sparql.TriplePattern{S: termFor(center), P: predTerm(), O: leafTerm()})
		}
	case r < p.ShapeChain+p.ShapeStar+p.ShapeTree:
		nodes := []string{newVar()}
		for i := 0; i < n; i++ {
			parent := nodes[g.rng.Intn(len(nodes))]
			child := newVar()
			nodes = append(nodes, child)
			out = append(out, &sparql.TriplePattern{S: termFor(parent), P: predTerm(), O: termFor(child)})
		}
	case r < p.ShapeChain+p.ShapeStar+p.ShapeTree+p.ShapeFlower && n >= 4:
		// Flower: a petal (two 2-paths center..target) plus stamens.
		center, mid1, mid2, target := newVar(), newVar(), newVar(), newVar()
		out = append(out,
			&sparql.TriplePattern{S: termFor(center), P: g.predicate(), O: termFor(mid1)},
			&sparql.TriplePattern{S: termFor(mid1), P: g.predicate(), O: termFor(target)},
			&sparql.TriplePattern{S: termFor(center), P: g.predicate(), O: termFor(mid2)},
			&sparql.TriplePattern{S: termFor(mid2), P: g.predicate(), O: termFor(target)},
		)
		for len(out) < n {
			out = append(out, &sparql.TriplePattern{S: termFor(center), P: g.predicate(), O: leafTerm()})
		}
	default:
		if n < 3 {
			// Too small for a cycle: fall back to a chain.
			cur := newVar()
			for i := 0; i < n; i++ {
				next := newVar()
				out = append(out, &sparql.TriplePattern{S: termFor(cur), P: predTerm(), O: termFor(next)})
				cur = next
			}
			return out
		}
		first := newVar()
		cur := first
		for i := 0; i < n-1; i++ {
			next := newVar()
			out = append(out, &sparql.TriplePattern{S: termFor(cur), P: g.predicate(), O: termFor(next)})
			cur = next
		}
		out = append(out, &sparql.TriplePattern{S: termFor(cur), P: g.predicate(), O: termFor(first)})
	}
	return out
}

func (g *generator) filterExpr(vars []string) sparql.Expr {
	v := sparql.Variable(vars[g.rng.Intn(len(vars))])
	r := g.rng.Float64()
	switch {
	case r < g.p.EqualityFilterRate && len(vars) >= 2:
		w := sparql.Variable(vars[g.rng.Intn(len(vars))])
		return &sparql.BinaryExpr{Op: "=", L: &sparql.TermExpr{Term: v}, R: &sparql.TermExpr{Term: w}}
	case r < g.p.EqualityFilterRate+g.p.ComplexFilterRate && len(vars) >= 2:
		w := sparql.Variable(vars[(g.rng.Intn(len(vars)))])
		return &sparql.BinaryExpr{Op: ">", L: &sparql.TermExpr{Term: v}, R: &sparql.TermExpr{Term: w}}
	case g.chance(0.5):
		// lang(?v) = "en"
		return &sparql.BinaryExpr{
			Op: "=",
			L:  &sparql.FuncCall{Name: "LANG", Args: []sparql.Expr{&sparql.TermExpr{Term: v}}},
			R:  &sparql.TermExpr{Term: sparql.Literal("en")},
		}
	default:
		g.seq++
		num := sparql.Term{Kind: sparql.TermLiteral, Value: fmt.Sprintf("%d", 1900+g.seq%120),
			Datatype: "http://www.w3.org/2001/XMLSchema#integer"}
		return &sparql.BinaryExpr{Op: ">", L: &sparql.TermExpr{Term: v}, R: &sparql.TermExpr{Term: num}}
	}
}

// pathExpr samples a navigational property path approximating the Table 5
// mix (plus the trivial forms at their corpus rates).
func (g *generator) pathExpr() sparql.PathExpr {
	lit := func() sparql.PathExpr {
		return &sparql.PathIRI{IRI: g.pred[g.rng.Intn(len(g.pred))], PrefixedForm: true}
	}
	r := g.rng.Float64()
	switch {
	case r < 0.255:
		return &sparql.PathNeg{Set: []sparql.PathExpr{lit()}} // !a (trivial)
	case r < 0.256:
		return &sparql.PathInverse{X: lit()} // ^a (trivial)
	case r < 0.55:
		k := 2 + g.rng.Intn(3)
		parts := make([]sparql.PathExpr, k)
		for i := range parts {
			parts[i] = lit()
		}
		return &sparql.PathMod{X: &sparql.PathAlt{Parts: parts}, Mod: '*'}
	case r < 0.74:
		return &sparql.PathMod{X: lit(), Mod: '*'}
	case r < 0.83:
		k := 2 + g.rng.Intn(5)
		parts := make([]sparql.PathExpr, k)
		for i := range parts {
			parts[i] = lit()
		}
		return &sparql.PathSeq{Parts: parts}
	case r < 0.90:
		return &sparql.PathSeq{Parts: []sparql.PathExpr{&sparql.PathMod{X: lit(), Mod: '*'}, lit()}}
	case r < 0.96:
		k := 2 + g.rng.Intn(5)
		parts := make([]sparql.PathExpr, k)
		for i := range parts {
			parts[i] = lit()
		}
		return &sparql.PathAlt{Parts: parts}
	case r < 0.98:
		return &sparql.PathMod{X: lit(), Mod: '+'}
	case r < 0.995:
		k := 1 + g.rng.Intn(5)
		parts := make([]sparql.PathExpr, k)
		for i := range parts {
			parts[i] = &sparql.PathMod{X: lit(), Mod: '?'}
		}
		if k == 1 {
			return parts[0]
		}
		return &sparql.PathSeq{Parts: parts}
	default:
		// The rare non-Ctract expression (a/b)*.
		return &sparql.PathMod{X: &sparql.PathSeq{Parts: []sparql.PathExpr{lit(), lit()}}, Mod: '*'}
	}
}

func (g *generator) selectClause(q *sparql.Query, vars []string) {
	p := g.p
	if g.chance(p.AggregateRate) {
		// COUNT dominates real logs (Table 2: Count 0.57% vs Max 0.01%);
		// the remaining aggregates appear with small weights.
		var agg *sparql.AggregateExpr
		switch r := g.rng.Float64(); {
		case r < 0.80:
			agg = &sparql.AggregateExpr{Name: "COUNT", Star: true}
		case r < 0.86 && len(vars) > 0:
			agg = &sparql.AggregateExpr{Name: "MAX", Arg: &sparql.TermExpr{Term: sparql.Variable(vars[0])}}
		case r < 0.92 && len(vars) > 0:
			agg = &sparql.AggregateExpr{Name: "MIN", Arg: &sparql.TermExpr{Term: sparql.Variable(vars[0])}}
		case r < 0.95 && len(vars) > 0:
			agg = &sparql.AggregateExpr{Name: "AVG", Arg: &sparql.TermExpr{Term: sparql.Variable(vars[0])}}
		case r < 0.97 && len(vars) > 0:
			agg = &sparql.AggregateExpr{Name: "SUM", Arg: &sparql.TermExpr{Term: sparql.Variable(vars[0])}}
		default:
			agg = &sparql.AggregateExpr{Name: "COUNT", Star: true}
		}
		q.Select = []sparql.SelectItem{{Var: sparql.Variable("agg"), Expr: agg}}
		if g.chance(p.GroupByRate*3) && len(vars) > 0 {
			q.Mods.GroupBy = []sparql.GroupKey{{Expr: &sparql.TermExpr{Term: sparql.Variable(vars[0])}}}
			q.Select = append([]sparql.SelectItem{{Var: sparql.Variable(vars[0])}}, q.Select...)
			if g.chance(0.08) {
				q.Mods.Having = []sparql.Expr{&sparql.BinaryExpr{
					Op: ">",
					L:  &sparql.AggregateExpr{Name: "COUNT", Star: true},
					R:  &sparql.TermExpr{Term: sparql.Term{Kind: sparql.TermLiteral, Value: "1", Datatype: "http://www.w3.org/2001/XMLSchema#integer"}},
				}}
			}
		}
		return
	}
	if len(vars) == 0 || g.chance(0.45) {
		q.SelectStar = true
		return
	}
	// Explicit variable list; a strict subset drives the projection rate.
	k := len(vars)
	if g.chance(0.35) && k > 1 {
		k = 1 + g.rng.Intn(k-1)
	}
	for i := 0; i < k; i++ {
		q.Select = append(q.Select, sparql.SelectItem{Var: sparql.Variable(vars[i])})
	}
}

func (g *generator) modifiers(q *sparql.Query) {
	p := g.p
	if g.chance(p.DistinctRate) && q.Type == sparql.SelectQuery {
		q.Distinct = true
	}
	if g.chance(p.LimitRate) {
		q.Mods.Limit = int64(10 * (1 + g.rng.Intn(10)))
		q.Mods.HasLimit = true
	}
	if g.chance(p.OffsetRate) {
		q.Mods.Offset = int64(10 * g.rng.Intn(20))
		q.Mods.HasOffset = true
	}
	if g.chance(p.OrderByRate) && q.Type == sparql.SelectQuery && len(q.Select) > 0 && q.Select[0].Expr == nil {
		q.Mods.OrderBy = []sparql.OrderKey{{Expr: &sparql.TermExpr{Term: q.Select[0].Var}}}
	}
}

func collectTriples(p sparql.Pattern) []*sparql.TriplePattern {
	var out []*sparql.TriplePattern
	sparql.Walk(p, func(n sparql.Pattern) bool {
		if t, ok := n.(*sparql.TriplePattern); ok {
			out = append(out, t)
		}
		return true
	})
	return out
}
