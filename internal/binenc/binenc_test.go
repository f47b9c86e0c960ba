package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// Every primitive round-trips through its append side, in sequence, and the
// reader ends exactly at the end of the buffer.
func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 0xab)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = binary.BigEndian.AppendUint64(b, math.MaxUint64-1)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, math.MinInt64)
	b = AppendBytes(b, []byte("key"))
	b = AppendString(b, "")
	b = AppendString(b, "value")
	b = binary.AppendUvarint(b, 2)
	b = append(b, 1, 2)

	r := NewReader(b)
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool: want true then false")
	}
	if got := r.Uint64(); got != math.MaxUint64-1 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Bytes(); string(got) != "key" {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("Str = %q, want empty", got)
	}
	if got := r.Str(); got != "value" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Count(1); got != 2 {
		t.Errorf("Count = %d", got)
	}
	if got := r.Take(2); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("Take = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// A map encodes its keys ascending whatever order it iterates in, and reads
// back equal; an empty map reads back empty, not nil.
func TestStringMapRoundTrip(t *testing.T) {
	m := map[string]string{"tz": "utc", "": "empty key", "app": ""}
	b := AppendStringMap(nil, m)
	want := []byte{3, 0, 9, 'e', 'm', 'p', 't', 'y', ' ', 'k', 'e', 'y', 3, 'a', 'p', 'p', 0, 2, 't', 'z', 3, 'u', 't', 'c'}
	if !bytes.Equal(b, want) {
		t.Fatalf("AppendStringMap = %q, want %q", b, want)
	}
	r := NewReader(b)
	got := r.StringMap()
	if err := r.Done(); err != nil || len(got) != len(m) {
		t.Fatalf("StringMap = %q, %v", got, err)
	}
	for k, v := range m {
		if got[k] != v {
			t.Fatalf("StringMap[%q] = %q, want %q", k, got[k], v)
		}
	}
	r = NewReader(AppendStringMap(nil, nil))
	if got := r.StringMap(); got == nil || len(got) != 0 || r.Done() != nil {
		t.Fatalf("empty StringMap = %#v", got)
	}
}

// Each read fails on input too short for it, and a length or count larger
// than what is left fails before anything is sliced.
func TestReaderRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"byte of nothing", nil, func(r *Reader) { r.Byte() }},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"short uint64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.Uint64() }},
		{"unterminated uvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		{"overlong uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		{"unterminated varint", []byte{0xff}, func(r *Reader) { r.Varint() }},
		{"bytes longer than input", []byte{5, 'a', 'b'}, func(r *Reader) { r.Bytes() }},
		{"length near 2^64", append(binary.AppendUvarint(nil, math.MaxUint64), 'a'), func(r *Reader) { r.Str() }},
		{"count beyond input", []byte{4, 0, 0, 0}, func(r *Reader) { r.Count(1) }},
		{"count beyond input at element size", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		{"trailing byte", []byte{1, 0}, func(r *Reader) { r.Byte() }},
		{"map keys out of order", []byte{2, 1, 'b', 0, 1, 'a', 0}, func(r *Reader) { r.StringMap() }},
		{"map key repeated", []byte{2, 1, 'a', 0, 1, 'a', 0}, func(r *Reader) { r.StringMap() }},
		{"map count beyond input", []byte{2, 1, 'a', 0}, func(r *Reader) { r.StringMap() }},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(r)
		if err := r.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Done = %v, want ErrMalformed", c.name, err)
		}
	}
}

// After the first failure every read returns the zero value and the error
// stays, so a decoder may read all its fields before checking.
func TestReaderFailureIsSticky(t *testing.T) {
	r := NewReader([]byte{9, 'x', 7, 7, 7, 7})
	if got := r.Bytes(); got != nil {
		t.Fatalf("Bytes = %v on a length past the end", got)
	}
	if r.Byte() != 0 || r.Uint64() != 0 || r.Uvarint() != 0 || r.Count(1) != 0 || r.Str() != "" {
		t.Fatal("a read after the failure returned input")
	}
	if err := r.Done(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Done = %v", err)
	}
}
