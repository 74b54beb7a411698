// Package rdf implements an in-memory RDF triple store with dictionary
// encoding. The mutable Store is a single-writer, append-only builder:
// terms are interned to dense IDs and triples appended as they arrive,
// duplicates included. Term text lives in shared arena chunks and the
// dictionary from text to ID is a flat table of IDs, so a loaded store
// is a few dozen heap objects, not a string and a map entry per term.
// Freeze drops the duplicates and converts the triples into an
// immutable Snapshot: the dictionary plus three index orderings (SPO,
// POS, OSP) as compact sorted posting lists, which hold the only copies
// of the triples. Every scan reads an index row. The Snapshot is safe
// to share across goroutines and is the data substrate of the query
// executor and of the engines of package engine (the chain/cycle
// experiment of Section 5.1, Figure 3).
package rdf

import (
	"hash/maphash"
	"slices"
	"strings"
)

// ID is a dictionary-encoded term identifier.
type ID = uint32

// Triple is a dictionary-encoded RDF triple.
type Triple struct {
	S, P, O ID
}

// Store is the mutable builder half of the store: it interns terms to
// dense IDs and appends triples, duplicates included; Freeze drops the
// duplicates. It holds no read indexes — call Freeze to obtain an
// immutable, indexed Snapshot for querying. A Store must not be mutated
// concurrently; Snapshots taken from it are independent of later
// mutation.
//
// A Snapshot shares the store's dictionary rather than copying it. Once
// frozen, the table is never written again: the store's next insert of
// a new term first clones it, so an earlier Snapshot never sees later
// interning. A new term's text is appended to the current arena chunk,
// which a Snapshot may be reading below the append point.
type Store struct {
	dict
	chunk   strings.Builder // arena: new terms' text, appended
	triples []Triple        // every Add, duplicates included
	shared  bool            // a Snapshot reads dict.index: clone it before inserting
}

// dict is the term table: each ID's text, and an open-addressing index
// from text to ID. The index is a power-of-two array of ID+1 (0 is an
// empty slot), probed linearly from a hash of the text and compared
// against terms; it holds no pointers, so the collector never traces
// it.
type dict struct {
	seed  maphash.Seed
	index []uint32
	terms []string
}

const (
	// chunkSize is the size of an arena chunk; a new term that does not
	// fit in what is left of the chunk starts the next one.
	chunkSize = 64 << 10
	// ownTerm is the length past which a term gets its own allocation
	// instead of arena space.
	ownTerm = 1 << 10
)

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{dict: dict{seed: maphash.MakeSeed(), index: make([]uint32, 64)}}
}

// find returns the ID of text if it is in the table, and otherwise the
// empty slot where it would go. h is text's hash under d.seed.
func find[T string | []byte](d *dict, h uint64, text T) (slot int, id ID, ok bool) {
	mask := len(d.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := d.index[i]
		if v == 0 {
			return i, 0, false
		}
		if d.terms[v-1] == string(text) {
			return i, v - 1, true
		}
	}
}

// Intern returns the ID for a term, creating it if needed. A new term's
// text is copied into the store's arena (or, past 1 KiB, into its own
// allocation), so the store never pins the larger string (an input
// line, say) it may be a substring of.
func (s *Store) Intern(term string) ID {
	slot, id, ok := find(&s.dict, maphash.String(s.seed, term), term)
	if ok {
		return id
	}
	if len(term) > ownTerm {
		return s.insert(slot, strings.Clone(term))
	}
	at := s.arena(len(term))
	s.chunk.WriteString(term)
	return s.insert(slot, s.chunk.String()[at:])
}

// internBytes is Intern from a byte slice, which it does not retain; a
// known term costs no allocation.
func (s *Store) internBytes(term []byte) ID {
	slot, id, ok := find(&s.dict, maphash.Bytes(s.seed, term), term)
	if ok {
		return id
	}
	if len(term) > ownTerm {
		return s.insert(slot, string(term))
	}
	at := s.arena(len(term))
	s.chunk.Write(term)
	return s.insert(slot, s.chunk.String()[at:])
}

// arena returns the offset in the arena chunk where n more bytes will
// be written, starting the next chunk if they do not fit in this one.
func (s *Store) arena(n int) int {
	if s.chunk.Len()+n > s.chunk.Cap() {
		s.chunk.Reset()
		s.chunk.Grow(chunkSize)
	}
	return s.chunk.Len()
}

// insert gives text, a new term, the next ID and the empty index slot
// find returned for it. The index doubles past 3/4 load.
func (s *Store) insert(slot int, text string) ID {
	id := ID(len(s.terms))
	s.terms = append(s.terms, text)
	if 4*len(s.terms) > 3*len(s.index) {
		s.rehash(2 * len(s.index))
	} else {
		if s.shared {
			s.index = slices.Clone(s.index)
		}
		s.index[slot] = id + 1
	}
	s.shared = false
	return id
}

// rehash rebuilds the index at size slots, a power of two.
func (s *Store) rehash(size int) {
	s.index = make([]uint32, size)
	mask := size - 1
	for id, t := range s.terms {
		i := int(maphash.String(s.seed, t)) & mask
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = uint32(id) + 1
	}
}

// Add appends a triple given as strings; Freeze drops duplicates.
func (s *Store) Add(sub, pred, obj string) {
	s.AddIDs(s.Intern(sub), s.Intern(pred), s.Intern(obj))
}

// AddIDs appends a dictionary-encoded triple; Freeze drops duplicates.
func (s *Store) AddIDs(sub, pred, obj ID) {
	s.triples = append(s.triples, Triple{sub, pred, obj})
}
