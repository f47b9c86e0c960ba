package sql

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
)

// Datum is one SQL value. The concrete representation (rather than
// interface{}) keeps comparisons allocation-free and lets the codecs below
// switch on Kind instead of on a dynamic type.
type Datum struct {
	Null bool
	Kind ColumnType
	I    int64
	F    float64
	S    string
	B    bool
}

// DNull is the SQL NULL.
var DNull = Datum{Null: true}

// DInt returns an INT datum.
func DInt(v int64) Datum { return Datum{Kind: TypeInt, I: v} }

// DString returns a STRING datum.
func DString(v string) Datum { return Datum{Kind: TypeString, S: v} }

// DFloat returns a FLOAT datum.
func DFloat(v float64) Datum { return Datum{Kind: TypeFloat, F: v} }

// DBool returns a BOOL datum.
func DBool(v bool) Datum { return Datum{Kind: TypeBool, B: v} }

// String renders the datum for result output.
func (d Datum) String() string {
	if d.Null {
		return "NULL"
	}
	switch d.Kind {
	case TypeInt:
		return fmt.Sprintf("%d", d.I)
	case TypeString:
		return d.S
	case TypeFloat:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", d.F), "0"), ".")
	case TypeBool:
		return fmt.Sprintf("%t", d.B)
	default:
		return "?"
	}
}

// Compare orders two datums totally, as CockroachDB does: NULL first, then
// the numbers, then STRINGs, then BOOLs (false before true). INT and FLOAT
// compare by exact value, and a NaN equals every NaN and sorts below every
// other number. So WHERE, MIN and MAX, ORDER BY and the KV node's pushed-down
// conditions see one order, whatever the kinds of the two sides: each is
// compareSlots.
func (d Datum) Compare(o Datum) int {
	a, b := d.slot(), o.slot()
	return compareSlots(&a, &b)
}

// slot is one value in typed form: the form the KV node's fold decodes a
// row's columns into (readColumn), and the one Compare, appendGroupKey,
// AppendDatum and the aggregate states work on, so that the row path and
// the fold order, key, encode and fold values with the same code. tag is
// the value's encoding tag; an INT is i, a BOOL is i as 0 or 1, a FLOAT is
// f, and a STRING is b, which aliases the bytes it was read from (or the
// Datum it views) and is never written. The fields the tag does not name
// hold whatever they held before. A tag that is none of tagNull to tagBool
// (the zero slot's) encodes and keys as NULL.
type slot struct {
	tag byte
	i   int64
	f   float64
	b   []byte
}

// slot returns d in typed form. A STRING's bytes view d.S in place: a
// string's bytes never change, and no slot's are written.
func (d Datum) slot() slot {
	switch {
	case d.Null:
		return slot{tag: tagNull}
	case d.Kind == TypeInt:
		return slot{tag: tagInt, i: d.I}
	case d.Kind == TypeFloat:
		return slot{tag: tagFloat, f: d.F}
	case d.Kind == TypeString:
		return slot{tag: tagString, b: unsafe.Slice(unsafe.StringData(d.S), len(d.S))}
	case d.Kind == TypeBool && d.B:
		return slot{tag: tagBool, i: 1}
	case d.Kind == TypeBool:
		return slot{tag: tagBool}
	default:
		return slot{tag: tagNull}
	}
}

// datum returns s as a Datum, copying a STRING's bytes.
func (s *slot) datum() Datum {
	switch s.tag {
	case tagInt:
		return DInt(s.i)
	case tagFloat:
		return DFloat(s.f)
	case tagString:
		return DString(string(s.b))
	case tagBool:
		return DBool(s.i != 0)
	default:
		return DNull
	}
}

// compareSlots orders a and b as Compare orders their Datums.
func compareSlots(a, b *slot) int {
	if a.tag == b.tag {
		switch a.tag {
		case tagInt, tagBool:
			return cmp.Compare(a.i, b.i)
		case tagFloat:
			return cmp.Compare(a.f, b.f) // NaN == NaN < -Inf, and -0 == 0
		case tagString:
			return bytes.Compare(a.b, b.b)
		}
		return 0
	}
	if c := cmp.Compare(tagRank(a.tag), tagRank(b.tag)); c != 0 {
		return c
	}
	if a.tag == tagFloat {
		return compareFloatInt(a.f, b.i)
	}
	return -compareFloatInt(b.f, a.i)
}

// sameSlot reports whether compareSlots(a, b) == 0, comparing two INTs or
// two STRINGs, a group column's common cases, by equality alone.
func sameSlot(a, b *slot) bool {
	switch {
	case a.tag != b.tag:
	case a.tag == tagInt:
		return a.i == b.i
	case a.tag == tagString:
		return string(a.b) == string(b.b)
	}
	return compareSlots(a, b) == 0
}

// tagRank is a value's place in Compare's order of kinds: the kinds that do
// not compare with each other order by it. The tags are in that order, and
// FLOAT shares INT's rank.
func tagRank(tag byte) byte {
	if tag == tagFloat {
		return tagInt
	}
	return tag
}

// compareFloatInt compares f with i exactly: converting either to the
// other's type can round (2^53+1 is no float64, 0.5 no int64).
func compareFloatInt(f float64, i int64) int {
	switch {
	case math.IsNaN(f) || f < math.MinInt64:
		return -1
	case f >= -math.MinInt64:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmp.Compare(f, t)
}

// Equal reports value equality.
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

func (d Datum) isNumeric() bool { return d.Kind == TypeInt || d.Kind == TypeFloat }

func (d Datum) asFloat() float64 {
	if d.Kind == TypeInt {
		return float64(d.I)
	}
	return d.F
}

// appendGroupKey appends d's key for GROUP BY, DISTINCT and hash-join
// lookups: datums Compare calls equal share one key. A key is a kind byte,
// then 8 bytes for an INT, or for a FLOAT of integral value the INT it
// equals (so -0 keys as 0), else the float's bits with every NaN folded to
// one; a uvarint length and the bytes of a STRING, or one byte for a BOOL; a
// NULL is its kind byte alone. Every key is self-delimiting, so a row's keys
// appended one after another identify its values exactly and no two rows'
// keys run together.
func appendGroupKey(b []byte, d Datum) []byte {
	s := d.slot()
	return appendSlotKey(b, &s)
}

// appendSlotKey is appendGroupKey of s.
func appendSlotKey(b []byte, s *slot) []byte {
	switch s.tag {
	case tagInt:
		return binary.BigEndian.AppendUint64(append(b, tagInt), uint64(s.i))
	case tagFloat:
		if t := math.Trunc(s.f); t == s.f && t >= math.MinInt64 && t < -math.MinInt64 {
			return binary.BigEndian.AppendUint64(append(b, tagInt), uint64(int64(t)))
		}
		bits := math.Float64bits(s.f)
		if math.IsNaN(s.f) {
			bits = math.Float64bits(math.NaN())
		}
		return binary.BigEndian.AppendUint64(append(b, tagFloat), bits)
	case tagString:
		return binenc.AppendBytes(append(b, tagString), s.b)
	case tagBool:
		return append(b, tagBool, byte(s.i))
	default:
		return append(b, tagNull)
	}
}

// datumFromLiteral converts a parsed literal value to a Datum.
func datumFromLiteral(v interface{}) (Datum, error) {
	switch x := v.(type) {
	case nil:
		return DNull, nil
	case int64:
		return DInt(x), nil
	case float64:
		return DFloat(x), nil
	case string:
		return DString(x), nil
	case bool:
		return DBool(x), nil
	default:
		return Datum{}, fmt.Errorf("sql: unsupported literal %T", v)
	}
}

// coerce converts d to the target column type where a lossless conversion
// exists.
func (d Datum) coerce(t ColumnType) (Datum, error) {
	if d.Null {
		return DNull, nil
	}
	if d.Kind == t {
		return d, nil
	}
	switch {
	case d.Kind == TypeInt && t == TypeFloat:
		return DFloat(float64(d.I)), nil
	case d.Kind == TypeFloat && t == TypeInt && d.F == math.Trunc(d.F):
		return DInt(int64(d.F)), nil
	default:
		return Datum{}, fmt.Errorf("sql: cannot use %s value as %s", d.Kind, t)
	}
}

// Datum type tags. Both encodings of a datum — the order-preserving one used
// in keys and the compact one used in stored row values and wire frames —
// lead with one of these, so mixed sequences decode unambiguously.
const (
	tagNull   byte = 0x01
	tagInt    byte = 0x02
	tagFloat  byte = 0x03
	tagString byte = 0x04
	tagBool   byte = 0x05
)

// encodeDatumKey appends an order-preserving encoding of d.
func encodeDatumKey(b keys.Key, d Datum) keys.Key {
	if d.Null {
		return append(b, tagNull)
	}
	switch d.Kind {
	case TypeInt:
		b = append(b, tagInt)
		return keys.EncodeInt64(b, d.I)
	case TypeFloat:
		b = append(b, tagFloat)
		return keys.EncodeUint64(b, sortableFloatBits(d.F))
	case TypeString:
		b = append(b, tagString)
		return keys.EncodeString(b, d.S)
	case TypeBool:
		b = append(b, tagBool)
		if d.B {
			return append(b, 1)
		}
		return append(b, 0)
	default:
		return append(b, tagNull)
	}
}

// datumKeyLen is the number of bytes encodeDatumKey appends for d.
func datumKeyLen(d Datum) int {
	switch {
	case d.Null:
		return 1
	case d.Kind == TypeInt, d.Kind == TypeFloat:
		return 1 + 8
	case d.Kind == TypeString:
		return 1 + keys.EncodedBytesLen(unsafe.Slice(unsafe.StringData(d.S), len(d.S)))
	case d.Kind == TypeBool:
		return 2
	default:
		return 1
	}
}

// decodeDatumKey consumes one datum encoding.
func decodeDatumKey(b keys.Key) (keys.Key, Datum, error) {
	if len(b) == 0 {
		return nil, Datum{}, fmt.Errorf("sql: empty datum key")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNull:
		return b, DNull, nil
	case tagInt:
		rest, v, err := keys.DecodeInt64(b)
		if err != nil {
			return nil, Datum{}, err
		}
		return rest, DInt(v), nil
	case tagFloat:
		rest, bits, err := keys.DecodeUint64(b)
		if err != nil {
			return nil, Datum{}, err
		}
		return rest, DFloat(floatFromSortableBits(bits)), nil
	case tagString:
		rest, s, err := keys.DecodeString(b)
		if err != nil {
			return nil, Datum{}, err
		}
		return rest, DString(s), nil
	case tagBool:
		if len(b) == 0 {
			return nil, Datum{}, fmt.Errorf("sql: truncated bool datum")
		}
		return b[1:], DBool(b[0] != 0), nil
	default:
		return nil, Datum{}, fmt.Errorf("sql: unknown datum tag 0x%02x", tag)
	}
}

// sortableFloatBits maps float64 onto uint64 so unsigned byte order matches
// numeric order (IEEE 754 trick: flip all bits of negatives, flip the sign
// bit of positives).
func sortableFloatBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

func floatFromSortableBits(bits uint64) float64 {
	if bits&(1<<63) != 0 {
		return math.Float64frombits(bits &^ (1 << 63))
	}
	return math.Float64frombits(^bits)
}

// AppendDatum appends the value encoding of d: a tag byte, then what the tag
// implies — nothing (NULL), a zigzag varint (INT), the IEEE 754 bits as eight
// big-endian bytes (FLOAT), a uvarint length and that many bytes (STRING), or
// one byte 0/1 (BOOL). Stored row values and wire frames both carry datums in
// this form; unlike the key encoding it is compact, not order-preserving.
func AppendDatum(b []byte, d Datum) []byte {
	s := d.slot()
	return appendSlot(b, &s)
}

// appendSlot is AppendDatum of s.
func appendSlot(b []byte, s *slot) []byte {
	switch s.tag {
	case tagInt:
		return binary.AppendVarint(append(b, tagInt), s.i)
	case tagFloat:
		return binary.BigEndian.AppendUint64(append(b, tagFloat), math.Float64bits(s.f))
	case tagString:
		return binenc.AppendBytes(append(b, tagString), s.b)
	case tagBool:
		return append(b, tagBool, byte(s.i))
	default:
		return append(b, tagNull)
	}
}

// ConsumeDatum reads one AppendDatum encoding from r. A malformed or
// truncated datum fails r and yields the zero Datum.
func ConsumeDatum(r *binenc.Reader) Datum { return consumeDatum(r, DNull) }

// consumeDatum is ConsumeDatum, but a STRING equal to prev is prev itself:
// a decoder that reads the value it read last time into the same place
// allocates nothing for it.
func consumeDatum(r *binenc.Reader, prev Datum) Datum {
	switch tag := r.Byte(); tag {
	case tagNull:
		return DNull
	case tagInt:
		return DInt(r.Varint())
	case tagFloat:
		return DFloat(math.Float64frombits(r.Uint64()))
	case tagString:
		b := r.Bytes()
		if !prev.Null && prev.Kind == TypeString && prev.S == string(b) {
			return prev
		}
		return DString(string(b))
	case tagBool:
		return DBool(r.Bool())
	default:
		// Byte returns 0 once r has failed, and 0 is no tag, so this arm
		// covers truncation as well as an unknown tag.
		r.Fail()
		return Datum{}
	}
}
