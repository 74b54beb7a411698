package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparqlog/internal/rdf"
	"sparqlog/internal/server"
	"sparqlog/internal/sparql"
)

var testVocab = vocab{counts: [...]int{1800, 3480, 300, 300, 120}}

func render(st stream, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		r := st(i)
		sb.WriteString(r.query)
		sb.WriteString(r.accept)
		sb.WriteByte(byte('0' + r.form))
		if r.cond {
			sb.WriteByte('c')
		}
		if r.malformed {
			sb.WriteByte('m')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The seed is the only source of randomness: the same seed gives
// byte-identical inputs, another seed does not.
func TestSeedDeterminesEveryInput(t *testing.T) {
	for _, wl := range serveWorkloads {
		a := render(wl.stream(1, testVocab), 2000)
		if b := render(wl.stream(1, testVocab), 2000); a != b {
			t.Errorf("%s: same seed, different request streams", wl.name)
		}
		if b := render(wl.stream(2, testVocab), 2000); a == b {
			t.Errorf("%s: seeds 1 and 2 give the same request stream", wl.name)
		}
	}
	dir := t.TempDir()
	write := func(name string, seed int64) (data, log []byte) {
		if _, _, err := writeDataset(filepath.Join(dir, name+".nt"), 2000, seed); err != nil {
			t.Fatal(err)
		}
		if _, err := writeCorpus(filepath.Join(dir, name+".log"), smallScale.corpusScale, seed); err != nil {
			t.Fatal(err)
		}
		return readFile(t, filepath.Join(dir, name+".nt")), readFile(t, filepath.Join(dir, name+".log"))
	}
	d1, l1 := write("a", 1)
	d1b, l1b := write("b", 1)
	d2, l2 := write("c", 2)
	if !bytes.Equal(d1, d1b) || !bytes.Equal(l1, l1b) {
		t.Error("same seed, different dataset or study log")
	}
	if bytes.Equal(d1, d2) || bytes.Equal(l1, l2) {
		t.Error("seeds 1 and 2 give the same dataset or study log")
	}
}

// The log mix holds its calibration: what is marked malformed is exactly
// what does not parse, and form, malformed and repeat shares are the
// paper's.
func TestLogMixCalibration(t *testing.T) {
	const n = 30000
	st := logMixStream(3, testVocab)
	seen := map[string]bool{}
	var malformed, repeats, selects, describes int
	for i := 0; i < n; i++ {
		r := st(i)
		q, err := sparql.Parse(r.query)
		if (err != nil) != r.malformed {
			t.Fatalf("request %d: malformed=%v but parse error is %v\n%s", i, r.malformed, err, r.query)
		}
		if seen[r.query] {
			repeats++
		}
		seen[r.query] = true
		switch {
		case r.malformed:
			malformed++
		case q.Type == sparql.SelectQuery:
			selects++
		case q.Type == sparql.DescribeQuery:
			describes++
		}
	}
	share := func(k int) float64 { return float64(k) / n }
	if s := share(malformed); s < 0.01 || s > 0.03 {
		t.Errorf("malformed share %.3f, want about 0.02", s)
	}
	if s := share(selects); s < 0.83 || s > 0.90 {
		t.Errorf("SELECT share %.3f, want about 0.86 (88%% of the well-formed)", s)
	}
	if s := share(describes); s < 0.035 || s > 0.055 {
		t.Errorf("DESCRIBE share %.3f, want about 0.045", s)
	}
	if s := share(repeats); s < 0.50 || s > 0.62 {
		t.Errorf("exact-repeat share %.3f over %d requests, want 0.55-0.60", s, n)
	}
}

func TestHeavyStreams(t *testing.T) {
	st := heavyUniqueStream(5, testVocab)
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		r := st(i)
		if seen[r.query] {
			t.Fatalf("request %d repeats an earlier query:\n%s", i, r.query)
		}
		seen[r.query] = true
		if _, err := sparql.Parse(r.query); err != nil {
			t.Fatalf("request %d does not parse: %v\n%s", i, err, r.query)
		}
	}
	hot := hotSet(5, testVocab)
	if len(hot) != hotQueries || len(slices.Compact(slices.Sorted(slices.Values(hot)))) != hotQueries {
		t.Errorf("hot set has %d queries, some equal; want %d distinct", len(hot), hotQueries)
	}
	// The warm-up pass covers every (query, content type) pair once.
	st = hotRepeatStream(5, testVocab)
	pairs := map[string]bool{}
	for i := 0; i < hotQueries*len(contentTypes); i++ {
		r := st(i)
		pairs[r.query+r.accept] = true
	}
	if len(pairs) != hotQueries*len(contentTypes) {
		t.Errorf("warm-up pass covers %d pairs, want %d", len(pairs), hotQueries*len(contentTypes))
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ pct, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.pct); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.pct, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 9 {
		t.Error("percentile or median reordered its input")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWindowPercentiles(t *testing.T) {
	// Five one-second windows of 100 samples; window w's slowest sample
	// takes (w+1)*10 ms, the rest 1 ms.
	var due, lat []time.Duration
	for w := 0; w < 5; w++ {
		for k := 0; k < 100; k++ {
			due = append(due, time.Duration(w)*time.Second+time.Duration(k)*10*time.Millisecond)
			l := time.Millisecond
			if k == 50 {
				l = time.Duration(w+1) * 10 * time.Millisecond
			}
			lat = append(lat, l)
		}
	}
	tails, fewest := windowPercentiles(due, lat, 5*time.Second, 5, 100)
	if median(tails) != 30*time.Millisecond || len(tails) != 5 || fewest != 100 {
		t.Errorf("windowPercentiles p100 = %v over at least %d samples, want median 30ms of 5 over 100", tails, fewest)
	}
	if tails, _ := windowPercentiles(due, lat, 5*time.Second, 5, 99); median(tails) != time.Millisecond {
		t.Errorf("windowPercentiles p99 = %v, want 1ms", tails)
	}
}

// The open loop sends on schedule and times each request from when it
// was due: against a server slower than the schedule, latency grows with
// the backlog instead of staying at the service time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 15 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("Content-Type", ctCSV)
		w.Write([]byte("x\n"))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	st := func(i int) request { return request{query: "ASK {}", accept: ctCSV} }
	var next atomic.Int64
	next.Store(7)
	// 200 req/s offered, 2 connections x 1/15ms = 133 req/s served.
	p := runOpen(c, st, &next, 500*time.Millisecond, 200)
	if p.attempted != 100 || p.failed != 0 || next.Load() != 107 {
		t.Fatalf("attempted %d, failed %d, next %d; want 100, 0, 107", p.attempted, p.failed, next.Load())
	}
	order := make([]int, len(p.due))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return int(p.due[a] - p.due[b]) })
	for k, i := range order {
		if want := time.Duration(k) * 5 * time.Millisecond; p.due[i] != want {
			t.Fatalf("request %d was due at %v, want %v", k, p.due[i], want)
		}
	}
	first, last := p.lat[order[0]], p.lat[order[len(order)-1]]
	if first > 2*service || last < 5*service {
		t.Errorf("latency of the first request %v and the last %v: want about %v and a backlog of well over %v", first, last, service, 5*service)
	}
}

// Every serialization sparqld produces decodes to the digest of the
// reference evaluation, unbound cells and literals included; a wrong
// body does not.
func TestDecodeAgreesWithReference(t *testing.T) {
	st := rdf.NewStore()
	st.Add("http://x/a", "http://x/p", "http://x/b")
	st.Add("http://x/a", "http://x/name", `tab	"quoted", comma`)
	st.Add("http://x/c", "http://x/p", "http://x/a")
	sn := st.Freeze()
	h := server.New(server.Config{Snapshot: sn, MaxInFlight: 1, QueueDepth: 1}).Handler()
	for _, q := range []string{
		`SELECT ?s ?n WHERE { ?s <http://x/p> ?o OPTIONAL { ?s <http://x/name> ?n } } ORDER BY ?s`,
		`SELECT ?n WHERE { ?s <http://x/p> ?o OPTIONAL { ?s <http://x/name> ?n } }`,
		`SELECT * WHERE { ?s <http://x/q> ?o }`,
		`ASK { <http://x/a> <http://x/p> <http://x/b> }`,
		`DESCRIBE <http://x/a>`,
	} {
		for _, ct := range contentTypes {
			req := request{query: q, accept: ct}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httpRequest(req))
			s := sampled{req, answer{status: rec.Code, body: rec.Body.Bytes()}}
			if err := checkSample(sn, s, map[string]expectation{}); err != nil {
				t.Errorf("%s as %s: %v\n%s", q, ct, err, rec.Body)
			}
			s.ans.body = bytes.Replace(rec.Body.Bytes(), []byte("http://x/a"), []byte("http://x/z"), 1)
			if bytes.Contains(rec.Body.Bytes(), []byte("http://x/a")) && checkSample(sn, s, map[string]expectation{}) == nil {
				t.Errorf("%s as %s: a corrupted body passed the check", q, ct)
			}
		}
	}
}

// TestSmoke runs all four workloads end to end at small scale — real
// sparqld and sparqlanalyze children, real HTTP, answer checks, and the
// traced replay — and holds what is printed to BENCHMARK.json: every
// workload, every end-to-end and per-layer metric, once, with its unit.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the binaries under test")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if _, err := buildBinaries("..", bin); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killChildren)
	if got := spec.workloadNames(); len(got) != len(serveWorkloads)+1 {
		t.Fatalf("BENCHMARK.json names workloads %v; the benchmark has %d serve workloads and %s", got, len(serveWorkloads), studyWorkload)
	}
	for _, name := range spec.workloadNames() {
		out := t.TempDir()
		cfg := config{binDir: bin, outDir: out, traceDir: out, seed: 7, seconds: 1.2, scale: smallScale, trace: true}
		rep, err := runWorkload(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.attempted == 0 || rep.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d\n%s", name, rep.attempted, rep.failed, strings.Join(rep.notes, "\n"))
		}
		// One run measured both lists: hold each to the spec in turn.
		measured := rep.metrics
		for _, trace := range []bool{false, true} {
			rep.metrics = map[string]metricValue{}
			for k, v := range measured {
				rep.metrics[k] = v
			}
			if err := spec.check(rep, trace); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.printResult(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: the traced run left no trace file: %v", name, err)
		}
	}
}
