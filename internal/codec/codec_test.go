package codec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ntga/internal/rdf"
)

func TestTripleRoundtrip(t *testing.T) {
	cases := []rdf.Triple{
		{S: 1, P: 2, O: 3},
		{S: 0xFFFFFFFF, P: 1, O: 0xFFFFFFFF},
		{},
	}
	for _, tr := range cases {
		got, err := DecodeTriple(EncodeTriple(tr))
		if err != nil {
			t.Fatalf("DecodeTriple(%v): %v", tr, err)
		}
		if got != tr {
			t.Errorf("roundtrip %v -> %v", tr, got)
		}
	}
}

func TestTripleRoundtripQuick(t *testing.T) {
	f := func(s, p, o uint32) bool {
		tr := rdf.Triple{S: rdf.ID(s), P: rdf.ID(p), O: rdf.ID(o)}
		got, err := DecodeTriple(EncodeTriple(tr))
		return err == nil && got == tr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIDRoundtripQuick(t *testing.T) {
	f := func(v uint32) bool {
		id := rdf.ID(v)
		got, err := DecodeID(EncodeID(id))
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompositeRoundtrip(t *testing.T) {
	var e Buffer
	e.PutUvarint(42)
	e.PutID(7)
	e.PutTriple(rdf.Triple{S: 1, P: 2, O: 3})
	e.PutBytes([]byte("hello"))
	e.PutIDs([]rdf.ID{9, 8, 7})
	e.PutBytes(nil)

	r := NewReader(e.Bytes())
	if v, err := r.Uvarint(); err != nil || v != 42 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if id, err := r.ID(); err != nil || id != 7 {
		t.Fatalf("ID = %d, %v", id, err)
	}
	if tr, err := r.Triple(); err != nil || tr != (rdf.Triple{S: 1, P: 2, O: 3}) {
		t.Fatalf("Triple = %v, %v", tr, err)
	}
	if b, err := r.Bytes(); err != nil || !bytes.Equal(b, []byte("hello")) {
		t.Fatalf("Bytes = %q, %v", b, err)
	}
	if ids, err := r.IDs(); err != nil || !reflect.DeepEqual(ids, []rdf.ID{9, 8, 7}) {
		t.Fatalf("IDs = %v, %v", ids, err)
	}
	if b, err := r.Bytes(); err != nil || len(b) != 0 {
		t.Fatalf("empty Bytes = %q, %v", b, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeTriple([]byte{1, 2}); err == nil {
		t.Error("truncated triple decoded without error")
	}
	if _, err := DecodeTriple(append(EncodeTriple(rdf.Triple{S: 1, P: 2, O: 3}), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeID(nil); err == nil {
		t.Error("empty ID decoded without error")
	}
	if _, err := DecodeID([]byte{0x80}); err == nil {
		t.Error("dangling varint decoded without error")
	}
	// ID overflow: varint > uint32.
	var e Buffer
	e.PutUvarint(1 << 40)
	if _, err := NewReader(e.Bytes()).ID(); err == nil {
		t.Error("overflowing ID accepted")
	}
	// Length prefix larger than remaining payload.
	e.Reset()
	e.PutUvarint(1000)
	if _, err := NewReader(e.Bytes()).Bytes(); err == nil {
		t.Error("oversized Bytes length accepted")
	}
	e.Reset()
	e.PutUvarint(1000)
	if _, err := NewReader(e.Bytes()).IDs(); err == nil {
		t.Error("oversized IDs length accepted")
	}
}

func TestBufferReset(t *testing.T) {
	e := NewBuffer(16)
	e.PutUvarint(5)
	if e.Len() == 0 {
		t.Fatal("Len = 0 after append")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len = %d after Reset", e.Len())
	}
}

// TestFuzzReaderNoPanic feeds random bytes through every Reader method and
// checks none of them panic (they must return ErrCorrupt instead).
func TestFuzzReaderNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := make([]byte, rng.Intn(20))
		rng.Read(p)
		r := NewReader(p)
		for r.Remaining() > 0 {
			switch rng.Intn(4) {
			case 0:
				if _, err := r.Uvarint(); err != nil {
					r.pos = len(r.b)
				}
			case 1:
				if _, err := r.ID(); err != nil {
					r.pos = len(r.b)
				}
			case 2:
				if _, err := r.Triple(); err != nil {
					r.pos = len(r.b)
				}
			case 3:
				if _, err := r.Bytes(); err != nil {
					r.pos = len(r.b)
				}
			}
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for v, want := range map[uint64]int{0: 1, 127: 1, 128: 2, 1<<14 - 1: 2, 1 << 14: 3, 1<<32 - 1: 5, 1<<64 - 1: 10} {
		var b Buffer
		b.PutUvarint(v)
		if got := UvarintLen(v); got != want || got != b.Len() {
			t.Errorf("UvarintLen(%d) = %d, want %d (PutUvarint wrote %d)", v, got, want, b.Len())
		}
	}
}
