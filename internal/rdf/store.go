// Package rdf implements an in-memory RDF triple store with dictionary
// encoding. The mutable Store is a single-writer, append-only builder:
// terms are interned to dense IDs and triples appended as they arrive,
// duplicates included. Freeze drops the duplicates and converts the
// triples into an immutable Snapshot: the dictionary plus three index
// orderings (SPO, POS, OSP) as compact sorted posting lists, which hold
// the only copies of the triples. Every scan reads an index row. The
// Snapshot is safe to share across goroutines and is the data substrate
// of the query executor and of the engines of package engine (the
// chain/cycle experiment of Section 5.1, Figure 3).
package rdf

import (
	"maps"
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
// frozen, the map is never written again: the store's next insert of a
// new term first clones it, so an earlier Snapshot never sees later
// interning.
type Store struct {
	dict    map[string]ID
	terms   []string
	triples []Triple // every Add, duplicates included
	shared  bool     // a Snapshot reads dict: clone it before inserting
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{dict: make(map[string]ID)}
}

// Intern returns the ID for a term, creating it if needed. A new term
// is copied, so the store never pins the larger string (an input line,
// say) it may be a substring of.
func (s *Store) Intern(term string) ID {
	if id, ok := s.dict[term]; ok {
		return id
	}
	if s.shared {
		s.dict, s.shared = maps.Clone(s.dict), false
	}
	term = strings.Clone(term)
	id := ID(len(s.terms))
	s.dict[term] = id
	s.terms = append(s.terms, term)
	return id
}

// Add appends a triple given as strings; Freeze drops duplicates.
func (s *Store) Add(sub, pred, obj string) {
	s.AddIDs(s.Intern(sub), s.Intern(pred), s.Intern(obj))
}

// AddIDs appends a dictionary-encoded triple; Freeze drops duplicates.
func (s *Store) AddIDs(sub, pred, obj ID) {
	s.triples = append(s.triples, Triple{sub, pred, obj})
}
