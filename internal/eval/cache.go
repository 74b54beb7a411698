package eval

import (
	"context"
	"strconv"
	"time"

	"sparqlog/internal/exec"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// cacheKey derives the result-cache key for one evaluation: the
// canonical query text (variable-renaming- and prefix-invariant,
// solution modifiers included) plus the row budget. MaxRows is part of
// the key because it changes observable behaviour at the margin — a
// result that fit a large budget must not answer a request whose
// smaller budget would have overflowed.
func cacheKey(q *sparql.Query, lim Limits) string {
	return "mr" + strconv.Itoa(lim.MaxRows) + "|" + sparql.QueryString(q)
}

// queryCached wraps queryDirect with the result cache: lookup, then
// single-flight collapse of concurrent identical executions, then
// cost-aware fill. Only clean results are shared or stored — errors
// (deadline truncations and row-limit overflows included) and
// SERVICE-recovered answers always come from a real execution and are
// never cached. The cache holds the executor's Answer itself: a fill
// retains the pointer, a hit and a collapsed follower receive it.
func queryCached(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim Limits) (*Result, error) {
	c := lim.Results
	key := cacheKey(q, lim)
	if r, ok := c.Get(sn, key); ok {
		res := answered(r.Answer)
		res.Cached, res.CacheKey = true, key
		return res, nil
	}
	fl, leader := c.Join(key)
	if !leader {
		r, ok, err := fl.Wait(ctx, c)
		if err != nil {
			// Our own deadline struck while waiting on the leader; the
			// executor convention for an expired context.
			return nil, exec.ErrTimeout
		}
		if ok {
			res := answered(r.Answer)
			res.Collapsed = true
			return res, nil
		}
		// The leader's execution failed or produced an unshareable
		// result; our deadline and SERVICE luck may differ, so run it
		// ourselves (without re-joining: a failing query must not
		// serialize all its issuers forever).
		return queryDirect(ctx, sn, q, lim)
	}
	return leadFlight(ctx, sn, q, lim, key, fl)
}

// leadFlight executes for the flight's leader, then resolves the flight
// and fills the cache on the way out, whatever the way out is: a panic
// in the executor completes the flight unshareable before unwinding
// further, so followers run the query themselves instead of waiting out
// their deadlines.
func leadFlight(ctx context.Context, sn *rdf.Snapshot, q *sparql.Query, lim Limits, key string, fl *qcache.Flight) (res *Result, err error) {
	var shared qcache.Result
	var cost time.Duration
	shareable := false
	defer func() {
		lim.Results.Complete(key, fl, shared, shareable)
		if shareable && lim.Results.Put(sn, key, shared, cost) {
			res.CacheKey = key
		}
	}()
	start := time.Now()
	res, err = queryDirect(ctx, sn, q, lim)
	cost = time.Since(start)
	if err == nil && res.Recovered == 0 {
		shared, shareable = qcache.Result{Answer: res.Answer}, true
	}
	return res, err
}
