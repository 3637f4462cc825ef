// Package codec provides the compact binary encodings used for records that
// flow through the simulated DFS and the MapReduce shuffle: dictionary IDs,
// triples, n-tuples, and length-prefixed composites.
//
// All encodings are varint-based so that the byte counters maintained by the
// DFS and the shuffle reflect realistic, size-proportional costs (the paper's
// central metric is the intermediate-result byte footprint).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"ntga/internal/rdf"
)

// ErrCorrupt is returned when a buffer does not contain a well-formed record.
var ErrCorrupt = errors.New("codec: corrupt record")

// Buffer is a tiny append-only encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer { return &Buffer{b: make([]byte, 0, capacity)} }

// Bytes returns the encoded bytes. The slice aliases the buffer's storage.
func (e *Buffer) Bytes() []byte { return e.b }

// Len reports the number of encoded bytes.
func (e *Buffer) Len() int { return len(e.b) }

// Reset truncates the buffer for reuse.
func (e *Buffer) Reset() { e.b = e.b[:0] }

// UvarintLen is the number of bytes PutUvarint appends for v, so callers can
// size a buffer exactly before they encode into it.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PutUvarint appends an unsigned varint.
func (e *Buffer) PutUvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

// PutID appends a dictionary ID as a varint.
func (e *Buffer) PutID(id rdf.ID) { e.PutUvarint(uint64(id)) }

// PutTriple appends a triple as three varints.
func (e *Buffer) PutTriple(t rdf.Triple) {
	e.PutID(t.S)
	e.PutID(t.P)
	e.PutID(t.O)
}

// PutBytes appends a length-prefixed byte string.
func (e *Buffer) PutBytes(p []byte) {
	e.PutUvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// PutString appends a length-prefixed string, framed exactly as PutBytes
// frames the same bytes.
func (e *Buffer) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// PutIDs appends a length-prefixed slice of IDs.
func (e *Buffer) PutIDs(ids []rdf.ID) {
	e.PutUvarint(uint64(len(ids)))
	for _, id := range ids {
		e.PutID(id)
	}
}

// Reader decodes records produced by Buffer.
type Reader struct {
	b   []byte
	pos int
}

// NewReader returns a Reader over p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

// ID reads a dictionary ID.
func (r *Reader) ID() (rdf.ID, error) {
	v, err := r.Uvarint()
	if err != nil {
		return rdf.NoID, err
	}
	if v > 0xFFFFFFFF {
		return rdf.NoID, fmt.Errorf("%w: ID %d overflows uint32", ErrCorrupt, v)
	}
	return rdf.ID(v), nil
}

// Triple reads a triple.
func (r *Reader) Triple() (rdf.Triple, error) {
	s, err := r.ID()
	if err != nil {
		return rdf.Triple{}, err
	}
	p, err := r.ID()
	if err != nil {
		return rdf.Triple{}, err
	}
	o, err := r.ID()
	if err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{S: s, P: p, O: o}, nil
}

// Bytes reads a length-prefixed byte string. The result aliases the
// underlying buffer.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	p := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return p, nil
}

// IDs reads a length-prefixed slice of IDs.
func (r *Reader) IDs() ([]rdf.ID, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) { // each ID is at least one byte
		return nil, ErrCorrupt
	}
	out := make([]rdf.ID, n)
	for i := range out {
		if out[i], err = r.ID(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeTriple encodes a single triple as a standalone record.
func EncodeTriple(t rdf.Triple) []byte {
	var e Buffer
	e.PutTriple(t)
	return e.Bytes()
}

// DecodeTriple decodes a standalone triple record.
func DecodeTriple(p []byte) (rdf.Triple, error) {
	r := NewReader(p)
	t, err := r.Triple()
	if err != nil {
		return rdf.Triple{}, err
	}
	if r.Remaining() != 0 {
		return rdf.Triple{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return t, nil
}

// EncodeID encodes a single ID as a standalone key.
func EncodeID(id rdf.ID) []byte {
	var e Buffer
	e.PutID(id)
	return e.Bytes()
}

// DecodeID decodes a standalone ID key.
func DecodeID(p []byte) (rdf.ID, error) {
	r := NewReader(p)
	id, err := r.ID()
	if err != nil {
		return rdf.NoID, err
	}
	if r.Remaining() != 0 {
		return rdf.NoID, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return id, nil
}
