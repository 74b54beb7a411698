package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sampleEvery is the stride of answer checking: status and content type
// are verified on every response, the full answer on one in sampleEvery.
const sampleEvery = 50

// failLatency is the latency charged to a failed request, so that a
// failure exceeds any latency a percentile could otherwise report: it is
// above sparqld's -timeout of 5 s.
const failLatency = 10 * time.Second

// client is the load generator's HTTP side: one process, at most
// `clients` keep-alive connections.
type client struct {
	hc   *http.Client
	base string

	mu    sync.Mutex
	etags map[string]string // query + "\x00" + accept -> last ETag seen
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
			Timeout:   failLatency,
		},
		base:  base,
		etags: map[string]string{},
	}
}

// answer is what came back for one request.
type answer struct {
	status int
	ctype  string
	body   []byte // kept only when the caller asked for it
	size   int
	// wantStatus is the status the request should have got, given the
	// ETag the client held when it sent it.
	wantStatus int
}

// ok reports whether status and content type are the expected ones.
func (a answer) ok(req request) bool {
	if a.status != a.wantStatus {
		return false
	}
	switch a.status {
	case http.StatusOK:
		return strings.HasPrefix(a.ctype, req.accept)
	case http.StatusBadRequest:
		return strings.HasPrefix(a.ctype, "text/plain")
	}
	return true
}

func (c *client) do(req request, keepBody bool) (answer, error) {
	hr, err := req.httpRequest(c.base)
	if err != nil {
		return answer{}, err
	}
	a := answer{wantStatus: http.StatusOK}
	if req.malformed {
		a.wantStatus = http.StatusBadRequest
	}
	key := req.query + "\x00" + req.accept
	if req.cond {
		c.mu.Lock()
		etag := c.etags[key]
		c.mu.Unlock()
		if etag != "" {
			hr.Header.Set("If-None-Match", etag)
			a.wantStatus = http.StatusNotModified
		}
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	a.status = resp.StatusCode
	a.ctype = resp.Header.Get("Content-Type")
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.mu.Lock()
		c.etags[key] = etag
		c.mu.Unlock()
	}
	if keepBody {
		a.body, err = io.ReadAll(resp.Body)
		a.size = len(a.body)
	} else {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		a.size = int(n)
	}
	return a, err
}

// sampled is one request whose full answer is checked after the run.
type sampled struct {
	req request
	ans answer
}

// phase collects what one goroutine of one load phase observed; the
// goroutines' phases are merged when all have returned.
type phase struct {
	attempted, failed int
	bytes             int64
	// due, lat and done are parallel: when each request was due (offset
	// from the phase start), how long after that its answer was complete
	// (failLatency at least for a failed one), and the offset at which it
	// actually was. okDone holds done of the requests that did not fail.
	due, lat, done, okDone []time.Duration
	// late is how late the generator's own timer fired for each request
	// it slept for (open loop only).
	late    []time.Duration
	samples []sampled
	// failures describes the first few failed requests.
	failures []string
	start    time.Time
	elapsed  time.Duration
}

func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.bytes += o.bytes
	p.due = append(p.due, o.due...)
	p.lat = append(p.lat, o.lat...)
	p.done = append(p.done, o.done...)
	p.okDone = append(p.okDone, o.okDone...)
	p.late = append(p.late, o.late...)
	p.samples = append(p.samples, o.samples...)
	p.failures = append(p.failures, o.failures...)
}

// send issues req, request i of the stream, and records the outcome; the
// latency clock started at due.
func (p *phase) send(c *client, req request, i int, start, due time.Time) {
	keep := i%sampleEvery == 0
	ans, err := c.do(req, keep)
	done := time.Since(start)
	lat := done - due.Sub(start)
	p.attempted++
	p.done = append(p.done, done)
	if err != nil || !ans.ok(req) {
		p.failed++
		lat = max(lat, failLatency)
		if len(p.failures) < 3 {
			p.failures = append(p.failures, fmt.Sprintf("request %d: status %d (want %d), content type %q, error %v\n    %s",
				i, ans.status, ans.wantStatus, ans.ctype, err, req.query))
		}
	} else {
		p.okDone = append(p.okDone, done)
		if keep {
			p.samples = append(p.samples, sampled{req, ans})
		}
	}
	p.bytes += int64(ans.size)
	p.due = append(p.due, due.Sub(start))
	p.lat = append(p.lat, lat)
}

// runClosed runs `clients` goroutines for d, each sending its next
// request as soon as the previous answer is complete, until d has passed
// and at least atLeast requests of the stream have been taken. Requests
// are taken from the stream starting at *next.
func runClosed(c *client, st stream, next *atomic.Int64, d time.Duration, atLeast int) *phase {
	return runPhase(func(p *phase, start time.Time) {
		for time.Since(start) < d || int(next.Load()) < atLeast {
			i := int(next.Add(1) - 1)
			req := st(i) // generated before the clock starts
			p.send(c, req, i, start, time.Now())
		}
	})
}

// runOpen sends request k of the phase at start + k/rate whether or not
// earlier ones have been answered, through at most `clients`
// connections: a request that finds both busy waits, and the wait counts
// in its latency because the clock started when it was due.
func runOpen(c *client, st stream, next *atomic.Int64, d time.Duration, rate int) *phase {
	first := int(next.Load())
	interval := time.Second / time.Duration(rate)
	n := int(d / interval)
	next.Add(int64(n))
	var slot atomic.Int64
	return runPhase(func(p *phase, start time.Time) {
		for {
			k := int(slot.Add(1) - 1)
			if k >= n {
				return
			}
			req := st(first + k) // generated before the request is due
			due := start.Add(time.Duration(k) * interval)
			if wait := time.Until(due); wait > 0 {
				sleep(wait)
				p.late = append(p.late, time.Since(due))
			}
			p.send(c, req, first+k, start, due)
		}
	})
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep goes
// through the runtime's network poller, whose timeout is in whole
// milliseconds: a wait shorter than that comes back about 1 ms late,
// which at these rates is most of the schedule's interval.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return only makes the request early
}

func runPhase(worker func(p *phase, start time.Time)) *phase {
	parts := make([]*phase, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range parts {
		parts[g] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(parts[g], start)
		}()
	}
	wg.Wait()
	total := &phase{start: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// windowPercentiles splits the samples into `windows` equal spans of the
// phase by due time and returns each window's pct percentile, with the
// smallest window's sample count. An empty window is left out.
func windowPercentiles(due, lat []time.Duration, span time.Duration, windows int, pct float64) (tails []time.Duration, fewest int) {
	buckets := make([][]time.Duration, windows)
	for i, d := range due {
		w := int(int64(d) * int64(windows) / int64(span))
		w = min(max(w, 0), windows-1)
		buckets[w] = append(buckets[w], lat[i])
	}
	fewest = len(buckets[0])
	for _, b := range buckets {
		fewest = min(fewest, len(b))
		if len(b) > 0 {
			tails = append(tails, percentile(b, pct))
		}
	}
	return tails, fewest
}

func (p *phase) String() string {
	return fmt.Sprintf("attempted=%d failed=%d bytes=%d elapsed=%v", p.attempted, p.failed, p.bytes, p.elapsed.Round(time.Millisecond))
}
