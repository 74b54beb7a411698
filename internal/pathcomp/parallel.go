package pathcomp

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"sparqlog/internal/rdf"
)

// This file parallelizes the all-pairs sweeps. The SCC condensation
// already isolates independent units of work: every component's closure
// can be computed without waiting on any other (a BFS from one member
// reaches exactly the serial closed set), so workers claim component
// blocks from a shared atomic cursor. Emission then partitions the
// subject ID space into stripes claimed the same way; stripes are
// concatenated in ascending order, so the merged pair list is
// byte-identical to the serial enumeration (subject-major, objects
// ascending) and a limit truncates to exactly the serial prefix.

// pairsParMinTerms gates the parallel sweep: below this many terms the
// serial enumeration wins on setup cost alone.
const pairsParMinTerms = 2048

// pairsParMaxWorkers caps fan-out; beyond this, claim contention and
// per-worker scratch outweigh extra cores for a single sweep.
const pairsParMaxWorkers = 64

// componentBlock is how many component IDs a worker claims per cursor
// bump — large enough to amortize the atomic, small enough to balance
// skewed component sizes.
const componentBlock = 32

// workerPanic carries a panic out of the sweep workers. They are the
// only goroutines a query starts, so a panic there is outside every
// recover the caller installed and would end the process: each worker
// defers capture, which keeps the first panic value and lets the worker
// return, and the sweep calls rethrow after wg.Wait, so the panic
// continues on the goroutine that asked for the sweep.
type workerPanic struct {
	once sync.Once
	val  any
}

func (p *workerPanic) capture() {
	if v := recover(); v != nil {
		p.once.Do(func() { p.val = v })
	}
}

func (p *workerPanic) rethrow() {
	if p.val != nil {
		panic(p.val)
	}
}

// testHookSweep, when set, runs in a sweep worker at each claim. The
// package's tests set it to inject a panic; nothing else may.
var testHookSweep func()

// PairsParCtx is PairsCtx with an intra-query worker budget: workers
// <= 1 (or a small graph) evaluates serially, exactly as PairsCtx;
// otherwise the closure fast path condenses into strongly connected
// components and fans the per-component closures and the per-subject
// emission out over the workers, and the general automaton partitions
// its multi-source sweep by source stripes. The pair order — and, with
// limit > 0, the exact truncated prefix — is identical to the serial
// enumeration in every case.
func (pa *Path) PairsParCtx(check Check, limit, workers int) ([][2]rdf.ID, error) {
	if workers > pairsParMaxWorkers {
		workers = pairsParMaxWorkers
	}
	if workers <= 1 || pa.sn.NumTerms() < pairsParMinTerms {
		return pa.PairsCtx(check, limit)
	}
	return pa.pairsPar(check, limit, workers)
}

func (pa *Path) pairsPar(check Check, limit, workers int) ([][2]rdf.ID, error) {
	if pa.closure {
		return pa.closurePairsPar(check, limit, workers)
	}
	return pa.nfaPairsPar(check, limit, workers)
}

// closurePairsPar is closurePairsAll with both phases parallel.
func (pa *Path) closurePairsPar(check Check, limit, workers int) ([][2]rdf.ID, error) {
	sn := pa.sn
	nTerms := sn.NumTerms()
	chk := &ticker{check: check}
	ad, err := pa.closureAdjacency(chk)
	if err != nil {
		return nil, err
	}
	comp, members, err := tarjanSCC(chk, ad, nTerms)
	if err != nil {
		return nil, err
	}

	// Phase A: per-component closures. Serially each component reuses
	// its successors' closed lists (reverse-topological order); that
	// reuse is a cross-component dependency, so here every claimed
	// component instead runs its own BFS from one member — independent
	// work, still bounded by the component's output size.
	closed := make([][]rdf.ID, len(members))
	var cursor atomic.Int64
	errs := make([]error, workers)
	var wp workerPanic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer wp.capture()
			wchk := &ticker{check: check}
			visited := rdf.NewBitset(nTerms)
			var stack []rdf.ID
			for {
				base := cursor.Add(componentBlock) - componentBlock
				if base >= int64(len(members)) {
					return
				}
				if h := testHookSweep; h != nil {
					h()
				}
				end := min(base+componentBlock, int64(len(members)))
				for c := base; c < end; c++ {
					cl, err := componentClosure(wchk, ad, visited, &stack, members[c][0])
					if err != nil {
						errs[w] = err
						return
					}
					closed[c] = cl
				}
			}
		}(w)
	}
	wg.Wait()
	wp.rethrow()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	// Phase B: subject-striped emission, mirroring the serial loop.
	emit := func(wchk *ticker, scratch rdf.Bitset, acc *[]rdf.ID, s rdf.ID, out *[][2]rdf.ID) error {
		if sn.SubjectDegree(s) == 0 && sn.ObjectDegree(s) == 0 {
			return nil
		}
		c := comp[s]
		var reach []rdf.ID
		switch {
		case pa.reflexive, len(members[c]) > 1:
			reach = closed[c]
		default:
			*acc = (*acc)[:0]
			for _, w := range ad.dst[ad.off[s]:ad.off[s+1]] {
				for _, x := range closed[comp[w]] {
					if scratch.Set(x) {
						*acc = append(*acc, x)
					}
				}
			}
			for _, x := range *acc {
				scratch.Unset(x)
			}
			sortIDs(*acc)
			reach = *acc
		}
		for _, o := range reach {
			if err := wchk.tick(); err != nil {
				return err
			}
			*out = append(*out, [2]rdf.ID{s, o})
		}
		return nil
	}
	return stripedEmit(check, limit, workers, nTerms, func(wchk *ticker, lo, hi rdf.ID, out *[][2]rdf.ID) error {
		scratch := rdf.NewBitset(nTerms)
		var acc []rdf.ID
		for s := lo; s < hi; s++ {
			if err := emit(wchk, scratch, &acc, s, out); err != nil {
				return err
			}
		}
		return nil
	})
}

// componentClosure computes one component's closed set: the members
// plus everything reachable from them. A BFS from any single member
// with the start pre-marked yields exactly that (a multi-member
// component cycles through all its members; a singleton contributes
// itself by the pre-mark), sorted by extracting the touched bitset
// words in order.
func componentClosure(chk *ticker, ad *adjacency, visited rdf.Bitset, stack *[]rdf.ID, rep rdf.ID) ([]rdf.ID, error) {
	lo, hi := int(rep>>6), int(rep>>6)
	visited.Set(rep)
	st := append((*stack)[:0], rep)
	for len(st) > 0 {
		n := st[len(st)-1]
		st = st[:len(st)-1]
		for _, m := range ad.dst[ad.off[n]:ad.off[n+1]] {
			if err := chk.tick(); err != nil {
				*stack = st
				visited.Clear()
				return nil, err
			}
			if visited.Set(m) {
				if w := int(m >> 6); w < lo {
					lo = w
				}
				if w := int(m >> 6); w > hi {
					hi = w
				}
				st = append(st, m)
			}
		}
	}
	*stack = st
	var out []rdf.ID
	for w := lo; w <= hi; w++ {
		word := visited[w]
		visited[w] = 0
		base := rdf.ID(w) << 6
		//ctxpoll:ignore bounded bit scan: at most 64 iterations per bitset word, and the sweep above ticked
		for word != 0 {
			out = append(out, base+rdf.ID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out, nil
}

// nfaPairsPar stripes the general automaton's multi-source sweep: each
// worker owns a pooled runner and evaluates the sources of its claimed
// stripes, exactly as the serial loop does per source.
func (pa *Path) nfaPairsPar(check Check, limit, workers int) ([][2]rdf.ID, error) {
	sn := pa.sn
	nTerms := sn.NumTerms()
	return stripedEmit(check, limit, workers, nTerms, func(wchk *ticker, lo, hi rdf.ID, out *[][2]rdf.ID) error {
		r := pa.getRunner(false)
		defer pa.putRunner(false, r)
		var sorted []rdf.ID
		for s := lo; s < hi; s++ {
			if sn.SubjectDegree(s) == 0 && sn.ObjectDegree(s) == 0 {
				continue
			}
			r.reset()
			if _, err := r.run(wchk, s, 0, false); err != nil {
				return err
			}
			sorted = append(sorted[:0], r.out...)
			sortIDs(sorted)
			for _, o := range sorted {
				if err := wchk.tick(); err != nil {
					return err
				}
				*out = append(*out, [2]rdf.ID{s, o})
			}
		}
		return nil
	})
}

// stripedEmit partitions [0, nTerms) into subject stripes, has workers
// claim them in ascending order off an atomic cursor, and concatenates
// the per-stripe pair buffers in stripe order. Because stripes are
// claimed ascending and every claimed stripe completes, once the
// produced total reaches the limit the finished prefix already contains
// the first `limit` pairs of the serial order; later stripes are simply
// never claimed, and the concatenation truncates exactly.
func stripedEmit(check Check, limit, workers, nTerms int, sweep func(wchk *ticker, lo, hi rdf.ID, out *[][2]rdf.ID) error) ([][2]rdf.ID, error) {
	stripe := nTerms / (workers * 4)
	if stripe < 512 {
		stripe = 512
	}
	nStripes := (nTerms + stripe - 1) / stripe
	outs := make([][][2]rdf.ID, nStripes)
	errs := make([]error, workers)
	var cursor, produced atomic.Int64
	var wp workerPanic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer wp.capture()
			wchk := &ticker{check: check}
			//ctxpoll:ignore bounded claim loop: at most nStripes iterations, and sweep ticks per emitted pair
			for {
				if limit > 0 && produced.Load() >= int64(limit) {
					return
				}
				si := int(cursor.Add(1) - 1)
				if si >= nStripes {
					return
				}
				if h := testHookSweep; h != nil {
					h()
				}
				lo := rdf.ID(si * stripe)
				hi := rdf.ID(min((si+1)*stripe, nTerms))
				var out [][2]rdf.ID
				if err := sweep(wchk, lo, hi, &out); err != nil {
					errs[w] = err
					return
				}
				outs[si] = out
				produced.Add(int64(len(out)))
			}
		}(w)
	}
	wg.Wait()
	wp.rethrow()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	var total int
	for _, o := range outs {
		total += len(o)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	merged := make([][2]rdf.ID, 0, total)
	for _, o := range outs {
		take := len(o)
		if rem := total - len(merged); take > rem {
			take = rem
		}
		merged = append(merged, o[:take]...)
		if len(merged) == total {
			break
		}
	}
	return merged, nil
}
