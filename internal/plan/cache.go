package plan

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sparqlog/internal/rdf"
)

// ShapeKey canonicalizes the atom structure of a conjunctive query into
// a cache key: variables are renumbered by first occurrence, subject and
// object constants collapse to an anonymous marker (their identity never
// enters the cost model), and constant predicates keep their ID (the
// per-predicate statistics do depend on it). Two queries with equal keys
// therefore receive identical plans, which is exactly when sharing a
// plan is sound.
func ShapeKey(atoms []Atom) string {
	var b strings.Builder
	b.Grow(len(atoms) * 12)
	varMap := map[int]int{}
	ref := func(r TermRef, predicate bool) {
		switch {
		case r.IsVar:
			canon, ok := varMap[r.Var]
			if !ok {
				canon = len(varMap)
				varMap[r.Var] = canon
			}
			b.WriteByte('?')
			b.WriteString(strconv.Itoa(canon))
		case predicate:
			b.WriteByte('p')
			b.WriteString(strconv.FormatUint(uint64(r.ID), 10))
		default:
			b.WriteByte('c')
		}
	}
	for _, a := range atoms {
		ref(a.S, false)
		b.WriteByte(' ')
		ref(a.P, true)
		b.WriteByte(' ')
		ref(a.O, false)
		b.WriteByte('.')
	}
	return b.String()
}

// DefaultMaxShapes bounds the cache's size. Real workloads concentrate
// on few shapes (the log study's central finding), so the bound only
// bites on adversarial shape churn; past it, new shapes plan uncached —
// the same degrade-to-correct fallback as a misrouted snapshot.
const DefaultMaxShapes = 4096

// Cache is a per-snapshot plan cache keyed by query shape. One Cache
// serves any number of goroutines: the service layer's worker pool
// shares a single Cache so the millions-of-users workload plans each
// query shape once. Plans are immutable, so a cached *Plan is handed out
// without copying.
type Cache struct {
	sn      *rdf.Snapshot
	planner Planner

	mu    sync.Mutex
	plans map[string]*Plan

	hits, misses atomic.Int64
}

// NewCache returns an empty plan cache bound to the snapshot whose
// statistics it plans with.
func NewCache(sn *rdf.Snapshot) *Cache {
	return &Cache{
		sn:      sn,
		planner: Planner{Stats: sn.Stats()},
		plans:   map[string]*Plan{},
	}
}

// Snapshot returns the snapshot the cache plans for.
func (c *Cache) Snapshot() *rdf.Snapshot { return c.sn }

// For returns the plan for the atoms, computing and caching it on first
// sight of the shape. A nil cache, or a snapshot other than the one the
// cache was built for, falls back to uncached planning — a misrouted
// cache degrades to correct-but-slower, never to a wrong plan.
func (c *Cache) For(sn *rdf.Snapshot, atoms []Atom, numVars int) *Plan {
	if c == nil || sn != c.sn {
		return For(sn, atoms, numVars)
	}
	key := ShapeKey(atoms)
	c.mu.Lock()
	if p, ok := c.plans[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return p
	}
	// Planning under the lock keeps miss counts exact (one per distinct
	// shape); plans are microseconds, so contention is immaterial next
	// to execution.
	p := c.planner.Plan(atoms, numVars)
	if len(c.plans) < DefaultMaxShapes {
		c.plans[key] = p
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return p
}

// Hits returns the number of cache hits so far.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache misses (= plans computed).
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached shapes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}
