package rdf

import (
	"fmt"
	"sync"
)

// ID is a dense dictionary-encoded identifier for an RDF term. ID 0 is
// reserved as the zero/invalid value; valid IDs start at 1.
type ID uint32

// NoID is the invalid/absent term identifier.
const NoID ID = 0

// Dict is a bidirectional, concurrency-safe dictionary mapping RDF terms to
// dense IDs. Encoding the same term twice yields the same ID.
type Dict struct {
	mu     sync.RWMutex
	byKey  map[string]ID
	terms  []Term // terms[id-1] is the term for id
	frozen bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[string]ID)}
}

// Encode interns the term and returns its ID, allocating a fresh ID if the
// term has not been seen before. Encode panics if the dictionary has been
// frozen and the term is unknown: freezing exists to catch accidental
// dictionary growth during query execution, which must never mint terms.
//
// The term's key is built in a stack buffer (for keys that fit it) and
// looked up without being made a string, so a term already interned costs no
// allocation; only an insert allocates its key.
func (d *Dict) Encode(t Term) ID {
	var buf [keyBuf]byte
	key := t.appendKey(buf[:0])
	d.mu.RLock()
	id, ok := d.byKey[string(key)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[string(key)]; ok {
		return id
	}
	if d.frozen {
		panic(fmt.Sprintf("rdf: Encode(%s) on frozen dictionary", t))
	}
	d.terms = append(d.terms, t)
	id = ID(len(d.terms))
	d.byKey[string(key)] = id
	return id
}

// keyBuf is the stack buffer Encode and Lookup build a term's key in: the
// keys of IRIs and short literals fit.
const keyBuf = 128

// Lookup returns the ID for a term without interning it. The second result
// reports whether the term was present.
func (d *Dict) Lookup(t Term) (ID, bool) {
	var buf [keyBuf]byte
	key := t.appendKey(buf[:0])
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[string(key)]
	return id, ok
}

// MustLookup returns the ID for a term, panicking if absent. It is intended
// for tests and for query compilation against a known dataset.
func (d *Dict) MustLookup(t Term) ID {
	id, ok := d.Lookup(t)
	if !ok {
		panic(fmt.Sprintf("rdf: term %s not in dictionary", t))
	}
	return id
}

// Decode returns the term for an ID. It panics on NoID or an out-of-range ID;
// IDs are only produced by Encode, so an invalid ID is a programming error.
func (d *Dict) Decode(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return *d.at(id)
}

// AppendNT appends the N-Triples form of each ID to dst, sep between two and
// "_" for NoID, and returns the extended buffer: one term, or one result row,
// rendered under one read lock without copying a Term out. It panics on an
// out-of-range ID, as Decode does.
func (d *Dict) AppendNT(dst []byte, sep byte, ids ...ID) []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, sep)
		}
		if id == NoID {
			dst = append(dst, '_')
			continue
		}
		dst = d.at(id).appendNT(dst)
	}
	return dst
}

// NTLen is the number of bytes AppendNT appends for ids, computed without
// rendering, so a caller can size one buffer for many rows.
func (d *Dict) NTLen(ids ...ID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for i, id := range ids {
		if i > 0 {
			n++
		}
		if id == NoID {
			n++
			continue
		}
		n += d.at(id).ntLen()
	}
	return n
}

// at returns the stored term for a valid ID; the caller holds d.mu. Terms are
// only ever appended, so the pointer stays valid for reading under the lock.
func (d *Dict) at(id ID) *Term {
	if id == NoID || int(id) > len(d.terms) {
		panic(fmt.Sprintf("rdf: Decode(%d) out of range (size %d)", id, len(d.terms)))
	}
	return &d.terms[id-1]
}

// Len reports the number of distinct terms interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Range calls f for every (id, term) pair in id order, stopping early if f
// returns false. The dictionary must not be mutated from within f.
func (d *Dict) Range(f func(ID, Term) bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, t := range d.terms {
		if !f(ID(i+1), t) {
			return
		}
	}
}

// Freeze marks the dictionary read-only: subsequent Encode calls for unknown
// terms panic. Query execution over a loaded dataset should never mint terms.
func (d *Dict) Freeze() {
	d.mu.Lock()
	d.frozen = true
	d.mu.Unlock()
}

// Extend appends terms in order, ignoring the frozen flag. It exists for
// replication, not for query execution: a cluster worker whose dictionary is
// frozen must still be able to append the master's newly ingested terms, in
// the master's ID order, so both sides keep identical ID assignments. A term
// that is already interned must sit exactly where the append would have put
// it (replicas extending from a shared prefix); anything else means the two
// dictionaries have diverged and the extension is refused.
func (d *Dict) Extend(terms []Term) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range terms {
		key := t.Key()
		if id, ok := d.byKey[key]; ok {
			return fmt.Errorf("rdf: Extend: term %s already interned as ID %d", t, id)
		}
		d.terms = append(d.terms, t)
		d.byKey[key] = ID(len(d.terms))
	}
	return nil
}

// Triple is a dictionary-encoded RDF triple.
type Triple struct {
	S, P, O ID
}

// Less orders triples by (S, P, O); used for canonical sorting in tests and
// deterministic output.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

func (t Triple) String() string {
	return fmt.Sprintf("(%d %d %d)", t.S, t.P, t.O)
}
