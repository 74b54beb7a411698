package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"

	"sparqlog/internal/gmark"
)

// Request forms of the SPARQL 1.1 Protocol query operation.
const (
	formGET = iota
	formPOSTForm
	formPOSTDirect
)

// Result media types sparqld can produce.
const (
	ctJSON = "application/sparql-results+json"
	ctXML  = "application/sparql-results+xml"
	ctCSV  = "text/csv"
	ctTSV  = "text/tab-separated-values"
)

var contentTypes = [...]string{ctJSON, ctXML, ctCSV, ctTSV}

// request is one generated HTTP request against /query.
type request struct {
	query  string
	accept string
	form   int
	// cond asks the client to send If-None-Match with the ETag it last
	// saw for (query, accept); the expected answer is then 304.
	cond bool
	// malformed marks query text that does not parse: expected answer 400.
	malformed bool
}

// httpRequest builds the request against base + "/query", in the
// request's protocol form and with its Accept header.
func (req request) httpRequest(base string) (*http.Request, error) {
	method, target, body, ctype := http.MethodPost, base+"/query", req.query, "application/sparql-query"
	switch req.form {
	case formGET:
		method, target, body, ctype = http.MethodGet, target+"?query="+url.QueryEscape(req.query), "", ""
	case formPOSTForm:
		body, ctype = "query="+url.QueryEscape(req.query), "application/x-www-form-urlencoded"
	}
	hr, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		hr.Header.Set("Content-Type", ctype)
	}
	hr.Header.Set("Accept", req.accept)
	return hr, nil
}

// A stream maps a request index to a request. It is a pure function of
// (seed, vocabulary, index), so a run of any length replays the same
// inputs and no state is shared between load-generator goroutines.
type stream func(i int) request

// serveWorkload is one HTTP serving workload. The rates, phase shares
// and tail percentile are constants of the benchmark: the parent commit
// and a change are measured on the same schedule.
type serveWorkload struct {
	name string
	// openRate is the open-loop arrival rate in requests per second: the
	// largest of {5, 10, 25, 50, 100, 250, 500, 1000, 2000, 4000, 8000}
	// not above a quarter of the closed-loop ops_per_s of the reference
	// run. At half, a stretch in which the sandbox runs a third slower
	// brings the server close enough to saturation for the queue, not the
	// server, to set the latency: p50 trebled and p99 rose tenfold.
	openRate int
	// tailPct is the percentile reported as e2e.latency_tail_ms: the highest
	// of {99, 95, 90} that leaves at least ten samples beyond it in each
	// open-loop window at openRate.
	tailPct float64
	// traceOnion and traceDeployed are how many requests the in-process
	// traced replay takes through the uncached levels and through the
	// handler configured as deployed, at the full --seconds; sized so
	// that the replay fits its half of the run.
	traceOnion, traceDeployed int
	// warm returns how many requests the warm-up sends at least (the
	// warm-up also runs for its share of the run time).
	warmMin int
	stream  func(seed int64, v vocab) stream
}

// Phase shares of --seconds for serve workloads.
const (
	warmShare   = 0.10
	closedShare = 0.35
	openShare   = 0.55
	openWindows = 5
	// closedWindows is how many windows the closed loop is cut into for
	// ops_per_s and cpu_ms_per_op.
	closedWindows = 7
)

// clients is the closed-loop client count and the connection cap of the
// load generator (nproc of the reference sandbox).
const clients = 2

// hotQueries is the size of serve-hot-repeat's query set.
const hotQueries = 64

var serveWorkloads = []serveWorkload{
	{name: "serve-log-mix", openRate: 500, tailPct: 99, traceOnion: 800, traceDeployed: 2000, stream: logMixStream},
	{name: "serve-heavy-unique", openRate: 50, tailPct: 90, traceOnion: 200, traceDeployed: 200, stream: heavyUniqueStream},
	{name: "serve-hot-repeat", openRate: 1000, tailPct: 99, traceOnion: hotQueries * len(contentTypes), traceDeployed: 2000, warmMin: hotQueries * len(contentTypes), stream: hotRepeatStream},
}

const studyWorkload = "study-batch"

func rngFor(seed int64, name string, i int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(mix64(uint64(seed))^h.Sum64(), mix64(uint64(i))))
}

// mix64 is the splitmix64 finalizer: adjacent inputs give unrelated outputs.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// zipf draws a rank in [0, n) with P(k) roughly proportional to
// 1/(k+c). The offset c = 1 + n/flat flattens the head of the
// distribution, so that no single query or node decides what a run costs
// and runs under different seeds stay alike.
func zipf(r *rand.Rand, n int, flat float64) int { return zipfAt(r.Float64(), n, flat) }

// zipfAt maps a point x of [0, 1) to its rank under the same distribution.
func zipfAt(x float64, n int, flat float64) int {
	c := 1 + float64(n)/flat
	k := int(c * (math.Pow((float64(n)+c)/c, x) - 1))
	return min(k, n-1)
}

// Head flatness of the three popularity draws: graph nodes used as
// constants, the log mix's re-issued queries, the hot set.
const (
	flatNodes   = 100
	flatReissue = 100
	flatHot     = 8
)

// pick draws an index with the given weights.
func pick(r *rand.Rand, weights ...float64) int { return pickAt(r.Float64(), weights...) }

// pickAt maps a point x of [0, 1) to an index with the given weights.
func pickAt(x float64, weights ...float64) int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	x *= sum
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// strata is a seeded family of low-discrepancy sequences. The draws
// that decide what a request costs — its class, its template, its
// result format — take point i of one instead of a random number, so
// every stretch of a stream holds each class in its exact proportion. A
// run then measures the system and not the luck of a seed: with random
// draws, how many 28 ms DESCRIBE queries fell into a 7 s phase moved
// ops_per_s by 12% between seeds. Which constants a request carries
// stays random.
type strata struct{ seed int64 }

// Irrational steps of the sequences (golden ratio, plastic number and
// its powers, roots of two and three), one per independent dimension.
const (
	dimSize    = 0.7320508075688772
	dimClass   = 0.6180339887498949
	dimReissue = 0.7548776662466927
	dimAccept  = 0.5698402909980532
	dimForm    = 0.41421356237309515
	dimBroken  = 0.3247179572447460
)

// at returns point i of the sequence with step dim: frac(offset + i*dim),
// the offset drawn from the seed.
func (s strata) at(dim float64, i int) float64 {
	off := float64(mix64(uint64(s.seed)^math.Float64bits(dim))>>11) / (1 << 53)
	x := off + float64(i)*dim
	return x - math.Floor(x)
}

func (s strata) accept(i int) string { return contentTypes[pickAt(s.at(dimAccept, i), 70, 10, 10, 10)] }
func (s strata) form(i int) int      { return pickAt(s.at(dimForm, i), 80, 10, 10) }

// ---- serve-log-mix ----

// Log-mix calibration, from the paper: query forms at Table 2 rates,
// triple counts per Figure 1, operator rates per Table 3.
const (
	malformedRate = 0.02
	pathRate      = 0.008
	filterRate    = 0.40
	optionalRate  = 0.16
	unionRate     = 0.18
	distinctRate  = 0.22
	limitRate     = 0.17
	orderByRate   = 0.02
	// A request re-issues one of hotPool earlier-style queries with
	// probability reissueRate; together they put the share of requests
	// whose text exactly repeats an earlier one at 55-60% over a run.
	reissueRate = 0.66
	hotPool     = 4000
)

// tripleDist[n-1] is the probability of an n-triple SELECT/ASK body:
// median 1, 91% at most 6.
var tripleDist = []float64{.56, .16, .08, .05, .03, .03, .02, .02, .02, .02, .01}

var prologue = "PREFIX bib: <" + bibP + ">\n" + func() string {
	var sb strings.Builder
	for _, t := range nodeTypes {
		fmt.Fprintf(&sb, "PREFIX %s: <%s%s/>\n", t, bibNode, t)
	}
	return sb.String()
}()

func logMixStream(seed int64, v vocab) stream {
	st := strata{seed}
	return func(i int) request {
		// Re-issued requests take their query from a small Zipf-popular
		// pool; the rest are one-off. Either way the query is drawn from
		// the same calibrated distribution, so re-issue changes the
		// repeat share and nothing else.
		key := hotPool + i
		if st.at(dimReissue, i) < reissueRate {
			key = zipf(rngFor(seed, "log-mix/req", i), hotPool, flatReissue)
		}
		class := pickAt(st.at(dimClass, key), 88, 5, 4.5, 2.5) // SELECT, ASK, DESCRIBE, CONSTRUCT
		malformed := st.at(dimBroken, key) < malformedRate
		query := logMixQuery(rngFor(seed, "log-mix/query", key), v, class, malformed)
		return request{query: query, accept: st.accept(i), form: st.form(i), malformed: malformed}
	}
}

// builder grows one connected basic graph pattern around an anchor
// constant by walking the Bib schema.
type builder struct {
	r    *rand.Rand
	v    vocab
	full bool // full IRIs instead of prefixed names
	// nodes are the typed terms a triple may extend from; nodes[0] is
	// the anchor constant.
	nodes   []typedTerm
	years   []string
	names   []string
	triples []string
	// used holds the (node, predicate, direction) moves already taken.
	used        map[string]bool
	usedInverse bool
	nvar        int
}

type typedTerm struct {
	text string
	typ  int
}

func (b *builder) iri(t, i int) string {
	if b.full {
		return "<" + nodeIRI(t, i) + ">"
	}
	return fmt.Sprintf("%s:%d", nodeTypes[t], i)
}

func (b *builder) pred(name string) string {
	if b.full {
		return "<" + bibP + name + ">"
	}
	return "bib:" + name
}

func (b *builder) newVar(prefix string) string {
	b.nvar++
	return fmt.Sprintf("?%s%d", prefix, b.nvar)
}

// addTriple extends the pattern from node index from (0 = anchor) and
// reports whether it found an unused move. Two rules keep every
// generated query small, as the log's queries are: a (node, predicate,
// direction) is used once, so a star never squares a fan-out; and a
// query traverses one edge backwards at most — at the anchor only for
// the Zipf-targeted predicates (cites, knows), whose popular targets
// have thousands of sources.
func (b *builder) addTriple(from int) bool {
	src := b.nodes[from]
	type move struct {
		pred    string
		inverse bool
		to      int // node type, or -1 name literal, -2 year literal
	}
	var moves []move
	add := func(m move) {
		if !b.used[fmt.Sprint(from, m.pred, m.inverse)] {
			moves = append(moves, m)
		}
	}
	for _, e := range gmark.BibSchema() {
		if int(e.From) == src.typ {
			add(move{e.Name, false, int(e.To)})
			add(move{e.Name, false, int(e.To)}) // forward preferred
		}
		if int(e.To) == src.typ && !b.usedInverse && (!e.Zipf || from == 0) {
			add(move{e.Name, true, int(e.From)})
		}
	}
	add(move{"name", false, -1})
	if src.typ == tPaper {
		add(move{"year", false, -2})
	}
	if len(moves) == 0 {
		return false
	}
	m := moves[b.r.IntN(len(moves))]
	b.used[fmt.Sprint(from, m.pred, m.inverse)] = true
	switch {
	case m.to == -1:
		n := b.newVar("n")
		b.names = append(b.names, n)
		b.triples = append(b.triples, fmt.Sprintf("%s %s %s", src.text, b.pred("name"), n))
	case m.to == -2:
		y := b.newVar("y")
		b.years = append(b.years, y)
		b.triples = append(b.triples, fmt.Sprintf("%s %s %s", src.text, b.pred("year"), y))
	case m.inverse:
		b.usedInverse = true
		x := b.newVar("x")
		b.nodes = append(b.nodes, typedTerm{x, m.to})
		b.triples = append(b.triples, fmt.Sprintf("%s %s %s", x, b.pred(m.pred), src.text))
	default:
		x := b.newVar("x")
		b.nodes = append(b.nodes, typedTerm{x, m.to})
		b.triples = append(b.triples, fmt.Sprintf("%s %s %s", src.text, b.pred(m.pred), x))
	}
	return true
}

func (b *builder) vars() []string {
	var vs []string
	for _, n := range b.nodes[1:] {
		vs = append(vs, n.text)
	}
	vs = append(vs, b.names...)
	return append(vs, b.years...)
}

func (b *builder) filter() string {
	r := b.r
	if len(b.years) > 0 && (len(b.names) == 0 || r.IntN(2) == 0) {
		y := b.years[r.IntN(len(b.years))]
		op := []string{">", ">=", "<", "<=", "="}[r.IntN(5)]
		return fmt.Sprintf("FILTER(%s %s %d)", y, op, yearLo+r.IntN(yearSpan))
	}
	n := b.names[r.IntN(len(b.names))]
	switch r.IntN(3) {
	case 0:
		return fmt.Sprintf(`FILTER(REGEX(%s, "^%s %d"))`, n, nodeTypes[r.IntN(len(nodeTypes))], 1+r.IntN(9))
	case 1:
		return fmt.Sprintf(`FILTER(CONTAINS(%s, "%d"))`, n, r.IntN(100))
	default:
		return fmt.Sprintf(`FILTER(%s != "%s %d")`, n, nodeTypes[r.IntN(len(nodeTypes))], r.IntN(1000))
	}
}

// logMixQuery draws one query of the endpoint mix, of the given class
// (0 SELECT, 1 ASK, 2 DESCRIBE, 3 CONSTRUCT), broken on request.
func logMixQuery(r *rand.Rand, v vocab, form int, malformed bool) string {
	b := &builder{r: r, v: v, full: r.IntN(2) == 0, used: map[string]bool{}}
	at := pick(r, 30, 50, 8, 7, 5) // anchor node type
	anchor := b.iri(at, zipf(r, v.counts[at], flatNodes))
	b.nodes = []typedTerm{{anchor, at}}

	var sb strings.Builder
	if !b.full {
		sb.WriteString(prologue)
	}
	switch {
	case form == 2:
		sb.WriteString("DESCRIBE " + anchor)
		if malformed {
			sb.WriteString(" WHERE {")
		}
		return sb.String()
	case form <= 1 && r.Float64() < pathRate:
		x := b.newVar("x")
		var path string
		switch at {
		case tPaper:
			path = []string{
				b.pred("cites") + "/" + b.pred("authoredBy"),
				b.pred("cites") + "*",
				b.pred("cites") + "+",
				"(" + b.pred("publishedIn") + "|" + b.pred("presentedAt") + ")",
			}[r.IntN(4)]
		case tResearcher:
			path = []string{
				b.pred("affiliatedWith") + "/^" + b.pred("affiliatedWith"),
				"^" + b.pred("authoredBy") + "/" + b.pred("publishedIn"),
			}[r.IntN(2)]
		default:
			path = "^" + b.pred([]string{"publishedIn", "presentedAt", "affiliatedWith"}[at-tJournal]) + "/" + b.pred("name")
		}
		b.triples = []string{fmt.Sprintf("%s %s %s", anchor, path, x)}
		b.nodes = append(b.nodes, typedTerm{x, -1})
	default:
		n := 1 + pick(r, tripleDist...)
		if form == 1 {
			n = 1 + pick(r, 70, 20, 10)
		}
		if form == 1 && n == 1 && r.IntN(10) < 4 {
			// Fully ground ASK: does this one edge exist?
			e := gmark.BibSchema()[r.IntN(len(gmark.BibSchema()))]
			b.triples = []string{fmt.Sprintf("%s %s %s",
				b.iri(int(e.From), zipf(r, v.counts[e.From], flatNodes)), b.pred(e.Name), b.iri(int(e.To), zipf(r, v.counts[e.To], flatNodes)))}
			break
		}
		union := n >= 2 && r.Float64() < unionRate
		for tries := 0; len(b.triples) < n && tries < 4*n; tries++ {
			from := 0
			if !union && len(b.nodes) > 1 && r.IntN(2) == 0 {
				from = r.IntN(len(b.nodes))
			}
			b.addTriple(from)
		}
		union = union && len(b.triples) >= 2
		if r.Float64() < filterRate {
			if len(b.years)+len(b.names) == 0 {
				// A filter needs a literal to test: trade the last triple
				// for a name lookup on the anchor.
				b.triples = b.triples[:len(b.triples)-1]
				nm := b.newVar("n")
				b.names = append(b.names, nm)
				b.triples = append(b.triples, fmt.Sprintf("%s %s %s", anchor, b.pred("name"), nm))
			}
			b.triples = append(b.triples, b.filter())
		}
		switch {
		case union:
			b.triples[0] = "{ " + b.triples[0] + " } UNION { " + b.triples[1] + " }"
			b.triples = append(b.triples[:1], b.triples[2:]...)
		case len(b.triples) >= 2 && r.Float64() < optionalRate:
			last := len(b.triples) - 1
			if strings.HasPrefix(b.triples[last], "FILTER") {
				last--
			}
			if last >= 1 {
				b.triples[last] = "OPTIONAL { " + b.triples[last] + " }"
			}
		}
	}
	body := "{ " + strings.Join(b.triples, " . ") + " }"
	body = strings.ReplaceAll(body, "} . ", "} ")
	body = strings.ReplaceAll(body, " . FILTER", " FILTER")

	vars := b.vars()
	switch form {
	case 1:
		sb.WriteString("ASK " + body)
	case 3:
		tmpl := b.triples[0]
		if !strings.Contains(tmpl, "?") || strings.ContainsAny(tmpl, "{*+|/^") {
			tmpl = fmt.Sprintf("%s %s %s", anchor, b.pred("related"), vars[0])
		}
		sb.WriteString("CONSTRUCT { " + tmpl + " } WHERE " + body)
	default:
		sb.WriteString("SELECT ")
		if r.Float64() < distinctRate {
			sb.WriteString("DISTINCT ")
		}
		if len(vars) == 0 || r.IntN(4) == 0 {
			sb.WriteString("*")
		} else {
			r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
			sb.WriteString(strings.Join(vars[:1+r.IntN(min(3, len(vars)))], " "))
		}
		sb.WriteString(" WHERE " + body)
		if len(vars) > 0 && r.Float64() < orderByRate {
			sb.WriteString(" ORDER BY " + vars[0])
		}
		if r.Float64() < limitRate {
			fmt.Fprintf(&sb, " LIMIT %d", []int{1, 5, 10, 20, 50, 100, 1000}[r.IntN(7)])
			if r.IntN(3) == 0 {
				fmt.Fprintf(&sb, " OFFSET %d", []int{0, 10, 100}[r.IntN(3)])
			}
		}
	}
	q := sb.String()
	if malformed {
		q = q[:strings.LastIndexByte(q, '}')]
	}
	return q
}

// ---- serve-heavy-unique and serve-hot-repeat ----

// heavyTemplates are the analytic query shapes: chains, stars and cycles
// with DISTINCT, GROUP BY/HAVING, ORDER BY with OFFSET, closures, OPTIONAL
// and one full-predicate dump. Each ends in LIMIT n. What decides a
// request's cost — how many years it spans, which hub it starts from —
// is taken from size, a point of [0, 1) that the caller draws from a
// low-discrepancy sequence, so that every stretch of a stream holds the
// same spread of sizes; what does not comes from r. serve-heavy-unique
// passes an n that grows with the request index and lies above any
// result size: no result is cut, no two requests have the same text, and
// the shape — with it the plan-cache key — recurs. serve-hot-repeat passes
// an n near 500, which cuts every result: a hot query's four serialized
// bodies fit its cache entry and are about as large under every seed. It
// leaves out the templates that finish below the result cache's admission
// cost once cut (hot false), because those would never be cached.
var heavyTemplates = []struct {
	name   string
	weight float64
	hot    bool
	text   func(r *rand.Rand, v vocab, size float64, n int) string
}{
	{"chain3-distinct", 10, false, func(r *rand.Rand, v vocab, size float64, n int) string {
		k, _ := split(size, 2)
		return fmt.Sprintf("SELECT DISTINCT ?r ?u WHERE { VALUES ?y { %s } ?p bib:year ?y . ?p bib:authoredBy ?r . ?r bib:affiliatedWith ?u } LIMIT %d",
			years(r, 1+k), n)
	}},
	{"star4-distinct", 10, true, func(r *rand.Rand, v vocab, size float64, n int) string {
		k, _ := split(size, 4)
		return fmt.Sprintf("SELECT DISTINCT ?p ?j WHERE { VALUES ?y { %s } ?p bib:year ?y . ?p bib:publishedIn ?j . ?p bib:authoredBy ?r . ?p bib:cites ?c } LIMIT %d",
			years(r, 2+k), n)
	}},
	{"cycle3-distinct", 10, true, func(r *rand.Rand, v vocab, size float64, n int) string {
		return fmt.Sprintf("SELECT DISTINCT ?a WHERE { ?a bib:knows ?b . ?b bib:knows ?c . ?c bib:knows ?a } LIMIT %d", n)
	}},
	{"group-having", 10, true, func(r *rand.Rand, v vocab, size float64, n int) string {
		k, rest := split(size, 7)
		more, _ := split(rest, 2)
		return fmt.Sprintf("SELECT ?j (COUNT(?p) AS ?n) WHERE { VALUES ?y { %s } ?p bib:year ?y . ?p bib:publishedIn ?j } GROUP BY ?j HAVING (COUNT(?p) > %d) ORDER BY DESC(?n) ?j LIMIT %d",
			years(r, 4+k), 1+more, n)
	}},
	{"orderby-offset", 10, true, func(r *rand.Rand, v vocab, size float64, n int) string {
		return fmt.Sprintf("SELECT ?r ?nm WHERE { VALUES ?y { %s } ?p bib:year ?y . ?p bib:authoredBy ?r . ?r bib:name ?nm } ORDER BY ?nm ?r LIMIT %d OFFSET %d",
			years(r, 1), n, r.IntN(200))
	}},
	{"citedby-closure", 10, false, func(r *rand.Rand, v vocab, size float64, n int) string {
		return fmt.Sprintf("SELECT ?x WHERE { ?x bib:cites+ paper:%d } LIMIT %d", 100+int(size*400), n)
	}},
	{"knows-closure", 3, true, func(r *rand.Rand, v vocab, size float64, n int) string {
		// The low indexes are the popular targets of knows, so all of them
		// lie in the one large component and every closure is that component.
		return fmt.Sprintf("SELECT ?x WHERE { researcher:%d (bib:knows|^bib:knows)* ?x } LIMIT %d",
			r.IntN(max(1, v.counts[tResearcher]/20)), n)
	}},
	{"predicate-dump", 3, false, func(r *rand.Rand, v vocab, size float64, n int) string {
		return fmt.Sprintf("SELECT ?s ?o WHERE { ?s bib:presentedAt ?o } LIMIT %d", n)
	}},
	{"count-distinct", 10, true, func(r *rand.Rand, v vocab, size float64, n int) string {
		k, rest := split(size, 2)
		more, _ := split(rest, 3)
		return fmt.Sprintf("SELECT ?u (COUNT(DISTINCT ?k) AS ?c) WHERE { VALUES ?y { %s } ?p bib:year ?y . ?p bib:authoredBy ?r . ?r bib:affiliatedWith ?u . ?r bib:knows ?k } GROUP BY ?u HAVING (COUNT(DISTINCT ?k) > %d) ORDER BY DESC(?c) ?u LIMIT %d",
			years(r, 1+k), 2+more, n)
	}},
	{"hub-optional", 10, false, func(r *rand.Rand, v vocab, size float64, n int) string {
		return fmt.Sprintf("SELECT ?p ?a ?c ?j WHERE { ?p bib:cites paper:%d . ?p bib:authoredBy ?a OPTIONAL { ?p bib:presentedAt ?c } OPTIONAL { ?p bib:publishedIn ?j } } LIMIT %d",
			int(size*50), n)
	}},
	{"hub-union", 10, false, func(r *rand.Rand, v vocab, size float64, n int) string {
		a, rest := split(size, 30)
		return fmt.Sprintf("SELECT ?p ?q WHERE { { ?p bib:cites paper:%d } UNION { ?p bib:cites paper:%d } ?q bib:cites ?p } LIMIT %d",
			a, int(rest*30), n)
	}},
}

// split cuts [0, 1) into n equal parts and returns the part x lies in and
// where in that part, again as a point of [0, 1): one stratified draw
// serves for two choices.
func split(x float64, n int) (int, float64) {
	k := min(int(x*float64(n)), n-1)
	return k, x*float64(n) - float64(k)
}

// years draws a run of k consecutive publication years, as the body of a
// VALUES block: each year selects about one sixtieth of the papers
// through the index, so the run length sets the query's size.
func years(r *rand.Rand, k int) string {
	y := yearLo + r.IntN(yearSpan-k+1)
	var sb strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "%d ", y+i)
	}
	return strings.TrimSpace(sb.String())
}

func heavyUniqueStream(seed int64, v vocab) stream {
	weights := make([]float64, len(heavyTemplates))
	for i, t := range heavyTemplates {
		weights[i] = t.weight
	}
	st := strata{seed}
	return func(i int) request {
		t := heavyTemplates[pickAt(st.at(dimClass, i), weights...)]
		query := prologue + t.text(rngFor(seed, "heavy-unique", i), v, st.at(dimSize, i), 100000+i)
		return request{query: query, accept: st.accept(i), form: st.form(i)}
	}
}

// hotSet returns serve-hot-repeat's fixed queries.
func hotSet(seed int64, v vocab) []string {
	var hot []int
	for i, t := range heavyTemplates {
		if t.hot {
			hot = append(hot, i)
		}
	}
	st := strata{seed}
	qs := make([]string, hotQueries)
	for j := range qs {
		t := heavyTemplates[hot[j%len(hot)]]
		qs[j] = prologue + t.text(rngFor(seed, "hot-set", j), v, st.at(dimSize, j), 500+j)
	}
	return qs
}

// hotRepeatStream requests the hot set with Zipf popularity, rank = index
// in the set: the templates take turns along the ranks, so each has the
// same share of the traffic under every seed. The first hotQueries×4
// requests (the warm-up) walk every (query, content type) pair once, so
// that afterwards every request can be answered from the result cache
// and every conditional request has an ETag to send.
func hotRepeatStream(seed int64, v vocab) stream {
	qs := hotSet(seed, v)
	st := strata{seed}
	return func(i int) request {
		if i < len(qs)*len(contentTypes) {
			return request{query: qs[i%len(qs)], accept: contentTypes[i/len(qs)], form: formGET}
		}
		return request{
			query:  qs[zipfAt(st.at(dimClass, i), len(qs), flatHot)],
			accept: contentTypes[int(st.at(dimAccept, i)*float64(len(contentTypes)))],
			form:   st.form(i),
			cond:   st.at(dimBroken, i) < 0.2,
		}
	}
}
