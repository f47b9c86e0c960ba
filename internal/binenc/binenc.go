// Package binenc holds the primitives of the repository's three hot byte
// formats — wire frames (internal/wire), stored row values (internal/sql) and
// raft commands (internal/kvserver): uvarint counts and lengths,
// length-prefixed byte strings, and fixed-width big-endian integers.
//
// Appending is mostly the standard library's (binary.AppendUvarint and
// friends). This package adds the consuming side: a Reader that checks every
// length and count against the bytes that remain before anything is sliced or
// allocated, so a decoder built from its calls cannot be made to panic or to
// over-allocate by its input, which arrives from outside the process.
package binenc

import (
	"encoding/binary"
	"errors"
)

// ErrMalformed reports input that is truncated, carries a length or count
// larger than the bytes behind it, or has bytes left over after the value.
var ErrMalformed = errors.New("binenc: truncated or malformed input")

// AppendBytes appends data with a uvarint length prefix.
func AppendBytes(b, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader consumes a buffer front to back. The first read that does not fit
// the remaining bytes makes the error sticky: it and every later read return
// the zero value, so a decoder reads all its fields and checks Done once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. Bytes and Take return sub-slices of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail makes the error sticky and drops the input; decoders built on Reader
// call it for values that fit the buffer but not the format (an unknown tag).
func (r *Reader) Fail() {
	r.err, r.b = ErrMalformed, nil
}

// Take reads the next n bytes as a sub-slice of the input; it returns nil
// after failing the reader when fewer remain.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail()
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail()
	}
	return v == 1
}

// Uint32 reads four bytes, big-endian.
func (r *Reader) Uint32() uint32 {
	if p := r.Take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// Uint64 reads eight bytes, big-endian.
func (r *Reader) Uint64() uint64 {
	if p := r.Take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a uvarint element count and fails unless that many elements of
// at least minSize bytes each fit in what remains, so the caller may size an
// allocation by the result.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b))/uint64(minSize) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string as a sub-slice of the input.
func (r *Reader) Bytes() []byte { return r.Take(r.Uvarint()) }

// Str reads a length-prefixed byte string as a string (a copy).
func (r *Reader) Str() string { return string(r.Bytes()) }

// Done returns the sticky error, or ErrMalformed if bytes remain unread.
func (r *Reader) Done() error {
	if len(r.b) != 0 {
		r.Fail()
	}
	return r.err
}
