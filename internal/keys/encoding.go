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

// DecodeBytes consumes the encoding produced by EncodeBytes.
func DecodeBytes(b Key) (rest Key, data []byte, err error) {
	if len(b) == 0 || b[0] != bytesMarker {
		return nil, nil, errors.New("keys: missing bytes marker")
	}
	b = b[1:]
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != escapeByte {
			out = append(out, c)
			continue
		}
		if i+1 >= len(b) {
			return nil, nil, errors.New("keys: truncated escape sequence")
		}
		switch b[i+1] {
		case escapedFF:
			out = append(out, escapeByte)
			i++
		case terminatorByte:
			return b[i+2:], out, nil
		default:
			return nil, nil, fmt.Errorf("keys: invalid escape byte 0x%02x", b[i+1])
		}
	}
	return nil, nil, errors.New("keys: unterminated bytes encoding")
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

// MakeTableIndexPrefix returns the key prefix of (tenant, table, index).
func MakeTableIndexPrefix(tenant TenantID, table TableID, index IndexID) Key {
	k := MakeTenantPrefix(tenant)
	k = EncodeUint64(k, uint64(table))
	k = EncodeUint64(k, uint64(index))
	return k
}

// MakeTableIndexSpan returns the span covering the whole (table, index).
func MakeTableIndexSpan(tenant TenantID, table TableID, index IndexID) Span {
	p := MakeTableIndexPrefix(tenant, table, index)
	return Span{Key: p, EndKey: p.PrefixEnd()}
}

// DecodeTableIndexPrefix parses a key laid out by MakeTableIndexPrefix,
// returning the components and the trailing (datum) portion of the key.
func DecodeTableIndexPrefix(k Key) (tenant TenantID, table TableID, index IndexID, rest Key, err error) {
	tenant, rest, ok := DecodeTenantPrefix(k)
	if !ok {
		return 0, 0, 0, nil, errors.New("keys: key lacks tenant prefix")
	}
	rest, t, err := DecodeUint64(rest)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	rest, i, err := DecodeUint64(rest)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return tenant, TableID(t), IndexID(i), rest, nil
}
