package core

// seenTable is one dedup shard's exact-dedup table: a slot per distinct
// text claimed, in an array whose length is a power of two. A key's home
// slot is picked by key[1] (the shard was picked by key[0]), a lookup
// probes linearly from there to the key or the first empty slot, and the
// array doubles at 3/4 load. A released claim is deleted by shifting
// the rest of its probe run back, so no tombstone is left: a log of
// noise leaves the table as it found it. A slot holds no pointer, so
// the GC never scans the array; the prepared Requests are in preps,
// which slots index.
type seenTable struct {
	slots []seenSlot
	// used is the number of full slots.
	used int
	// preps are the shard's prepared Requests, in admission order.
	preps []*Request
}

// seenSlot is one slot of a seenTable, 24 bytes: the key of a claimed
// text; its repeat shape once the claim is settled, 0 while it is in
// flight; and 1 + the index in preps of the text's prepared Request, 0
// while it has none.
type seenSlot struct {
	key   textKey
	shape shapeCode
	full  bool
	prep  uint32
}

// seenMinSlots is the length of an empty table.
const seenMinSlots = 16

func newSeenTable() seenTable {
	return seenTable{slots: make([]seenSlot, seenMinSlots)}
}

// find returns the index of key's slot if the table holds key, and
// otherwise of the empty slot that ends its probe run.
func (t *seenTable) find(key textKey) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(key[1]) & mask; ; i = (i + 1) & mask {
		switch s := &t.slots[i]; {
		case !s.full:
			return i, false
		case s.key == key:
			return i, true
		}
	}
}

// claim returns key's slot and true if the table holds key; otherwise
// it puts key in the table, in flight, and returns false.
func (t *seenTable) claim(key textKey) (seenSlot, bool) {
	i, ok := t.find(key)
	if ok {
		return t.slots[i], true
	}
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
		i, _ = t.find(key)
	}
	t.slots[i] = seenSlot{key: key, full: true}
	t.used++
	return seenSlot{}, false
}

// grow doubles the array and puts every full slot back in it.
func (t *seenTable) grow() {
	old := t.slots
	t.slots = make([]seenSlot, 2*len(old))
	for _, s := range old {
		if s.full {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// settle records the repeat shape of key's in-flight claim, or releases
// the claim when shape is 0.
func (t *seenTable) settle(key textKey, shape shapeCode) {
	i, ok := t.find(key)
	switch {
	case !ok:
	case shape != 0:
		t.slots[i].shape = shape
	default:
		t.release(i)
	}
}

// release empties slot i. Each later slot of the probe run moves into
// the hole if the hole lies between its home slot and it, the run's
// next hole then being where it was; so every key stays reachable from
// its home without crossing an empty slot.
func (t *seenTable) release(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].full; j = (j + 1) & mask {
		home := int(t.slots[j].key[1]) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = seenSlot{}
	t.used--
}

// prepared returns the prepared Request of slot s, nil if it has none.
func (t *seenTable) prepared(s seenSlot) *Request {
	if s.prep == 0 {
		return nil
	}
	return t.preps[s.prep-1]
}

// prepare keeps r as key's prepared Request and reports true, unless
// the table does not hold key or its text is prepared already.
func (t *seenTable) prepare(key textKey, r *Request) bool {
	i, ok := t.find(key)
	if !ok || t.slots[i].prep != 0 {
		return false
	}
	t.preps = append(t.preps, r)
	t.slots[i].prep = uint32(len(t.preps))
	return true
}
