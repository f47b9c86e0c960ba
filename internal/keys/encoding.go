package keys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Order-preserving encodings. Encoded values compare bytewise in the same
// order as the source values, which lets composite SQL index keys sort
// correctly in the KV keyspace.

// EncodeUint64 appends an 8-byte big-endian encoding of v, which orders the
// same as v.
func EncodeUint64(b Key, v uint64) Key {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}

// DecodeUint64 consumes the encoding produced by EncodeUint64.
func DecodeUint64(b Key) (rest Key, v uint64, err error) {
	if len(b) < 8 {
		return nil, 0, errors.New("keys: buffer too short for uint64")
	}
	return b[8:], binary.BigEndian.Uint64(b[:8]), nil
}

// EncodeInt64 appends an order-preserving encoding of a signed integer by
// flipping the sign bit.
func EncodeInt64(b Key, v int64) Key {
	return EncodeUint64(b, uint64(v)^(1<<63))
}

// DecodeInt64 consumes the encoding produced by EncodeInt64.
func DecodeInt64(b Key) (rest Key, v int64, err error) {
	rest, u, err := DecodeUint64(b)
	if err != nil {
		return nil, 0, err
	}
	return rest, int64(u ^ (1 << 63)), nil
}

const (
	bytesMarker    = 0x12
	escapeByte     = 0x00
	escapedFF      = 0xff
	terminatorByte = 0x01
)

// EncodeBytes appends an order-preserving encoding of a byte string. Embedded
// 0x00 bytes are escaped as {0x00, 0xff}; the value is terminated with
// {0x00, 0x01}. Longer strings with a shared prefix sort after shorter ones,
// matching Go's bytes.Compare on the source values.
func EncodeBytes(b Key, data []byte) Key {
	b = append(b, bytesMarker)
	for _, c := range data {
		if c == escapeByte {
			b = append(b, escapeByte, escapedFF)
		} else {
			b = append(b, c)
		}
	}
	return append(b, escapeByte, terminatorByte)
}

// EncodedBytesLen is the number of bytes EncodeBytes appends for data, for a
// caller that sizes its buffer once.
func EncodedBytesLen(data []byte) int {
	return len(data) + 3 + bytes.Count(data, []byte{escapeByte})
}

// DecodedBytesLen is the length of the data EncodeBytes encoded as enc, for
// a caller that sizes its buffer before decoding. Each 0x00 in enc opens an
// escape: of one zero data byte, or of the terminator.
func DecodedBytesLen(enc Key) int {
	return len(enc) - 2 - bytes.Count(enc, []byte{escapeByte})
}

// DecodeBytes consumes the encoding produced by EncodeBytes, into a fresh
// slice.
func DecodeBytes(b Key) (rest Key, data []byte, err error) {
	var buf []byte
	if len(b) > 1 {
		buf = make([]byte, 0, len(b)-1)
	}
	if rest, data, err = AppendDecodeBytes(buf, b); err != nil {
		return nil, nil, err
	}
	return rest, data, nil
}

// AppendDecodeBytes consumes the encoding produced by EncodeBytes, appending
// the decoded bytes to dst. On error it returns dst as it was: an append
// never writes below len(dst), so what dst held is untouched either way.
func AppendDecodeBytes(dst []byte, b Key) (rest Key, out []byte, err error) {
	if len(b) == 0 || b[0] != bytesMarker {
		return nil, dst, errors.New("keys: missing bytes marker")
	}
	b = b[1:]
	out = dst
	// Byte by byte rather than bytes.IndexByte between escapes: SQL keys
	// are mostly the zero bytes of big-endian integers, so the runs between
	// escapes are short.
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != escapeByte {
			out = append(out, c)
			continue
		}
		if i+1 >= len(b) {
			return nil, dst, errors.New("keys: truncated escape sequence")
		}
		switch b[i+1] {
		case escapedFF:
			out = append(out, escapeByte)
			i++
		case terminatorByte:
			return b[i+2:], out, nil
		default:
			return nil, dst, fmt.Errorf("keys: invalid escape byte 0x%02x", b[i+1])
		}
	}
	return nil, dst, errors.New("keys: unterminated bytes encoding")
}

// EncodeString appends an order-preserving encoding of a string.
func EncodeString(b Key, s string) Key { return EncodeBytes(b, []byte(s)) }

// DecodeString consumes the encoding produced by EncodeString.
func DecodeString(b Key) (rest Key, s string, err error) {
	rest, data, err := DecodeBytes(b)
	if err != nil {
		return nil, "", err
	}
	return rest, string(data), nil
}

// Table keyspace layout within a tenant.

// TableID identifies a table within a tenant's catalog.
type TableID uint32

// IndexID identifies an index within a table. The primary index is 1.
type IndexID uint32

// PrimaryIndexID is the IndexID of every table's primary index.
const PrimaryIndexID IndexID = 1

// TableIndexPrefixLen is the length of every (tenant, table, index) prefix.
const TableIndexPrefixLen = tenantPrefixLen + 8 + 8

// MakeTableIndexPrefix returns the key prefix of (tenant, table, index), in
// one allocation.
func MakeTableIndexPrefix(tenant TenantID, table TableID, index IndexID) Key {
	return AppendTableIndexPrefix(make(Key, 0, TableIndexPrefixLen), tenant, table, index)
}

// AppendTableIndexPrefix appends the key prefix of (tenant, table, index) to
// b: the table's prefix, then the index ID.
func AppendTableIndexPrefix(b Key, tenant TenantID, table TableID, index IndexID) Key {
	return EncodeUint64(appendTablePrefix(b, tenant, table), uint64(index))
}

// MakeTablePrefix returns the key prefix every index of (tenant, table)
// shares, in one allocation: its span holds all of the table's data.
func MakeTablePrefix(tenant TenantID, table TableID) Key {
	return appendTablePrefix(make(Key, 0, tenantPrefixLen+8), tenant, table)
}

func appendTablePrefix(b Key, tenant TenantID, table TableID) Key {
	return EncodeUint64(appendTenantPrefix(b, tenant), uint64(table))
}

// MakeTableIndexSpan returns the span covering the whole (table, index).
func MakeTableIndexSpan(tenant TenantID, table TableID, index IndexID) Span {
	p := MakeTableIndexPrefix(tenant, table, index)
	return Span{Key: p, EndKey: p.PrefixEnd()}
}
