package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// foldKeys sends every key to shard 0 and onto one of four home slots
// whatever the table's length: the last two, the first and the eighth.
// Probe runs are then long and wrap past the end of the array. The
// other bits are left as they are, so distinct texts keep distinct keys.
func foldKeys(k textKey) textKey {
	homes := [...]uint64{1<<32 - 1, 1<<32 - 2, 0, 7}
	k[0] -= k[0] % dedupShards
	k[1] = k[1]&^(1<<32-1) | homes[k[1]%4]
	return k
}

// seenOracle drives shard 0's seenTable through a LiveAnalyzer's own
// claim (lookup), settle and admit, and after each step compares the
// table with a map of what it must hold.
type seenOracle struct {
	tb      testing.TB
	la      *LiveAnalyzer
	keys    []textKey
	want    map[textKey]oracleSlot
	charged int
}

type oracleSlot struct {
	shape shapeCode
	prep  *Request
}

func newSeenOracle(tb testing.TB, texts int) *seenOracle {
	o := &seenOracle{tb: tb, la: NewLiveAnalyzer("seen", Options{}, 1), want: map[textKey]oracleSlot{}}
	o.la.keyHook = foldKeys
	for i := 0; i < texts; i++ {
		o.keys = append(o.keys, o.la.keyOf("text "+strconv.Itoa(i)))
	}
	return o
}

// step runs one operation on key i: op 0 claims it; 1 records shape
// for it and 2 releases it if it is in flight; 3 admits r for it if it
// is recorded. An operation that does not apply to the key's state
// claims it instead.
func (o *seenOracle) step(op, i int, shape shapeCode, r *Request) {
	key := o.keys[i]
	st, ok := o.want[key]
	switch {
	case (op == 1 || op == 2) && ok && st.shape == 0:
		e := logEntry{key: key, state: claimedNew}
		if op == 2 {
			shape = 0
			delete(o.want, key)
		} else {
			o.want[key] = oracleSlot{shape: shape}
		}
		o.la.settle(&e, shape)
	case op == 3 && ok && st.shape != 0:
		e := logEntry{key: key, state: recorded, req: r}
		o.la.admit(&e)
		if c := preparedCost(r); st.prep == nil && o.charged+c <= preparedBudget/dedupShards {
			o.charged += c
			st.prep = r
			o.want[key] = st
		}
	default:
		var e logEntry
		o.la.lookup(&e, key)
		switch {
		case !ok:
			if e.state != claimedNew {
				o.tb.Fatalf("claim of an absent key found it (state %d)", e.state)
			}
			o.want[key] = oracleSlot{}
		case st.shape == 0:
			if e.state != inFlight {
				o.tb.Fatalf("claim of an in-flight key: state %d", e.state)
			}
		case e.state != recorded || e.shape != st.shape || e.prep != st.prep:
			o.tb.Fatalf("claim of a recorded key: state %d, shape %d, prepared %p; want shape %d, prepared %p",
				e.state, e.shape, e.prep, st.shape, st.prep)
		}
	}
	_, held := o.want[key]
	if _, found := o.la.shards[0].seen.find(key); found != held {
		o.tb.Fatalf("after operation %d, key %x found %v, want %v", op, key, found, held)
	}
	o.check()
}

// check compares shard 0's table with the oracle: the same keys with
// the same shapes and prepared Requests, each reachable from its home
// slot, a length that is a power of two, at most 3/4 load, and the
// shard charged what the oracle admitted.
func (o *seenOracle) check() {
	sh := &o.la.shards[0]
	t := &sh.seen
	if n := len(t.slots); n < seenMinSlots || n&(n-1) != 0 || 4*t.used > 3*n {
		o.tb.Fatalf("table of %d slots holds %d", n, t.used)
	}
	full := 0
	for _, s := range t.slots {
		if !s.full {
			if s != (seenSlot{}) {
				o.tb.Fatalf("empty slot holds %+v", s)
			}
			continue
		}
		full++
		st, ok := o.want[s.key]
		if !ok || s.shape != st.shape || t.prepared(s) != st.prep {
			o.tb.Fatalf("slot %x holds shape %d, prepared %p; want %v (%d, %p)", s.key, s.shape, t.prepared(s), ok, st.shape, st.prep)
		}
	}
	if full != len(o.want) || t.used != full {
		o.tb.Fatalf("table holds %d keys (counts %d), want %d", full, t.used, len(o.want))
	}
	// A key is reachable if no empty slot lies between its home and its
	// slot: run counts the full slots up to and including slot j, walked
	// from an empty slot once around the array.
	mask := len(t.slots) - 1
	empty := 0
	for t.slots[empty].full {
		empty++
	}
	run := 0
	for n := 1; n <= len(t.slots); n++ {
		j := (empty + n) & mask
		if s := &t.slots[j]; !s.full {
			run = 0
		} else if run++; (j-int(s.key[1]))&mask >= run {
			o.tb.Fatalf("key %x in slot %d is cut off from its home slot %d", s.key, j, int(s.key[1])&mask)
		}
	}
	if sh.prepared != o.charged || len(t.preps) > len(o.want) {
		o.tb.Fatalf("shard charged %d B for %d prepared Requests, want %d B", sh.prepared, len(t.preps), o.charged)
	}
}

// TestSeenTableMatchesMap interleaves claims, recorded shapes, released
// claims and admitted Requests over 600 texts folded onto four home
// slots, which grows the table from 16 slots to 1,024, and holds the
// table to a map after every operation. Admissions run past the shard's
// share of preparedBudget.
func TestSeenTableMatchesMap(t *testing.T) {
	o := newSeenOracle(t, 600)
	rng := rand.New(rand.NewSource(48))
	reqs := []*Request{{text: ""}, {text: strings.Repeat("x", 200)}, {text: strings.Repeat("y", 2000)}}
	for n := 0; n < 12000; n++ {
		o.step(rng.Intn(4), rng.Intn(len(o.keys)), shapeCode(1+rng.Intn(shapeCodes)), reqs[rng.Intn(len(reqs))])
	}
	if n := len(o.la.shards[0].seen.slots); n < 1024 {
		t.Errorf("the table grew to %d slots, want 1,024", n)
	}
	if o.charged+preparedCost(reqs[0]) <= preparedBudget/dedupShards {
		t.Errorf("admissions charged %d B, short of the shard's budget", o.charged)
	}
	// Release every claim still in flight, then claim and release each
	// other text once more: noise leaves nothing behind.
	for i, key := range o.keys {
		if st, ok := o.want[key]; ok && st.shape == 0 {
			o.step(2, i, 0, nil)
		}
	}
	recorded := len(o.want)
	for i, key := range o.keys {
		if _, ok := o.want[key]; !ok {
			o.step(0, i, 0, nil)
			o.step(2, i, 0, nil)
		}
	}
	if got := o.la.shards[0].seen.used; got != recorded {
		t.Errorf("after claiming and releasing the rest, the table holds %d keys, want %d", got, recorded)
	}
}

// FuzzSeenTable drives the table with fuzzed operations, two bytes
// each: the operation and a shape from the first, a text among 256 from
// the second; the texts' keys are folded onto four home slots.
func FuzzSeenTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 0, 1, 3, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 4, 0, 8, 0, 12, 0, 16, 2, 4, 2, 8, 0, 4, 5, 0, 7, 0, 0, 0})
	f.Add([]byte(strings.Repeat("\x00\x10\x04\x10\x08\x20\x00\x30\x01\x30\x03\x10", 20)))
	reqs := []*Request{{text: ""}, {text: strings.Repeat("x", 300)}}
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newSeenOracle(t, 256)
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i]
			o.step(int(op&3), int(ops[i+1]), shapeCode(1+int(op>>2)), reqs[(op>>2)&1])
		}
	})
}
