package rdf

import "math/bits"

// Bitset is a dense bit vector over dictionary IDs, the frontier/visited
// representation of the compiled path engine (internal/pathcomp): one bit
// per term, so membership tests and inserts are branch-free word ops and
// a breadth-first frontier touches memory linearly instead of hashing.
// Size it off the snapshot's ID bound with Snapshot.NewBitset.
type Bitset []uint64

// NewBitset returns a Bitset able to hold IDs in [0, n).
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// NewBitset returns a Bitset sized to the snapshot's dictionary, so every
// term ID of the snapshot is in range.
func (sn *Snapshot) NewBitset() Bitset {
	return NewBitset(len(sn.terms))
}

// Has reports whether id is in the set. IDs past the set's capacity are
// reported absent rather than panicking, matching the zero statistics
// out-of-dictionary IDs get elsewhere.
func (b Bitset) Has(id ID) bool {
	w := int(id >> 6)
	return w < len(b) && b[w]&(1<<(id&63)) != 0
}

// Set inserts id and reports whether it was newly inserted (the
// test-and-set a BFS visited check needs). IDs past the capacity are
// ignored and reported as not inserted.
func (b Bitset) Set(id ID) bool {
	w := int(id >> 6)
	if w >= len(b) {
		return false
	}
	mask := uint64(1) << (id & 63)
	if b[w]&mask != 0 {
		return false
	}
	b[w] |= mask
	return true
}

// Unset removes id.
func (b Bitset) Unset(id ID) {
	w := int(id >> 6)
	if w < len(b) {
		b[w] &^= 1 << (id & 63)
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendIDs appends the members in ascending ID order and returns the
// extended slice.
func (b Bitset) AppendIDs(dst []ID) []ID {
	for wi, w := range b {
		base := ID(wi) << 6
		for w != 0 {
			dst = append(dst, base+ID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
