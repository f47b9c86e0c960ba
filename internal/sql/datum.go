package sql

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
)

// Datum is one SQL value: the one typed form that the executor, the row
// codec and the KV node's fold (scanFold) share, so that they order, key,
// encode and fold values with the same code. Kind says which field holds
// the value: an INT is I, a BOOL is I as 0 or 1, a FLOAT is F and a STRING
// is S; a NULL (TypeNull) is none of them. The fields Kind does not name are
// ignored. A Kind that is none of TypeInt to TypeNull encodes, keys and
// compares as NULL.
type Datum struct {
	Kind ColumnType
	I    int64
	F    float64
	S    string
}

// DNull is the SQL NULL.
var DNull = Datum{Kind: TypeNull}

// DInt returns an INT datum.
func DInt(v int64) Datum { return Datum{Kind: TypeInt, I: v} }

// DString returns a STRING datum.
func DString(v string) Datum { return Datum{Kind: TypeString, S: v} }

// DFloat returns a FLOAT datum.
func DFloat(v float64) Datum { return Datum{Kind: TypeFloat, F: v} }

// DBool returns a BOOL datum.
func DBool(v bool) Datum {
	if v {
		return Datum{Kind: TypeBool, I: 1}
	}
	return Datum{Kind: TypeBool}
}

// isTrue reports whether d is the BOOL true: a WHERE or ON clause keeps a
// row exactly when its value is.
func (d Datum) isTrue() bool { return d.Kind == TypeBool && d.I != 0 }

// String renders the datum for result output.
func (d Datum) String() string {
	switch d.Kind {
	case TypeInt:
		return fmt.Sprintf("%d", d.I)
	case TypeString:
		return d.S
	case TypeFloat:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", d.F), "0"), ".")
	case TypeBool:
		return fmt.Sprintf("%t", d.I != 0)
	case TypeNull:
		return "NULL"
	default:
		return "?"
	}
}

// Compare orders two datums totally, as CockroachDB does: NULL first, then
// the numbers, then STRINGs, then BOOLs (false before true). INT and FLOAT
// compare by exact value, and a NaN equals every NaN and sorts below every
// other number. So WHERE, MIN and MAX, ORDER BY and the KV node's pushed-down
// conditions see one order, whatever the kinds of the two sides.
func (d Datum) Compare(o Datum) int {
	if d.Kind == o.Kind {
		switch d.Kind {
		case TypeInt, TypeBool:
			return cmp.Compare(d.I, o.I)
		case TypeFloat:
			return cmp.Compare(d.F, o.F) // NaN == NaN < -Inf, and -0 == 0
		case TypeString:
			return strings.Compare(d.S, o.S)
		}
		return 0
	}
	if c := cmp.Compare(kindRank(d.Kind), kindRank(o.Kind)); c != 0 {
		return c
	}
	switch {
	case d.Kind == TypeFloat && o.Kind == TypeInt:
		return compareFloatInt(d.F, o.I)
	case d.Kind == TypeInt && o.Kind == TypeFloat:
		return -compareFloatInt(o.F, d.I)
	}
	return 0 // two kinds that are both NULL
}

// Equal reports whether d and o Compare equal, comparing two INTs or two
// STRINGs, a group column's common cases, by equality alone.
func (d Datum) Equal(o Datum) bool {
	switch {
	case d.Kind != o.Kind:
	case d.Kind == TypeInt:
		return d.I == o.I
	case d.Kind == TypeString:
		return d.S == o.S
	}
	return d.Compare(o) == 0
}

// kindRank is a kind's place in Compare's order of kinds: the kinds that do
// not compare with each other order by it. FLOAT shares INT's rank.
func kindRank(k ColumnType) int {
	switch k {
	case TypeInt, TypeFloat:
		return 1
	case TypeString:
		return 2
	case TypeBool:
		return 3
	default:
		return 0
	}
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

func (d Datum) isNumeric() bool { return d.Kind == TypeInt || d.Kind == TypeFloat }

func (d Datum) asFloat() float64 {
	if d.Kind == TypeInt {
		return float64(d.I)
	}
	return d.F
}

// appendGroupKey appends d's key for GROUP BY, DISTINCT, hash-join lookups
// and the KV node's groups: datums Compare calls equal share one key. A key
// is a kind byte, then 8 bytes for an INT, or for a FLOAT of integral value
// the INT it equals (so -0 keys as 0), else the float's bits with every NaN
// folded to one; a uvarint length and the bytes of a STRING, or one byte
// for a BOOL; a NULL is its kind byte alone. Every key is self-delimiting,
// so a row's keys appended one after another identify its values exactly
// and no two rows' keys run together.
func appendGroupKey(b []byte, d Datum) []byte {
	switch d.Kind {
	case TypeInt:
		return binary.BigEndian.AppendUint64(append(b, tagInt), uint64(d.I))
	case TypeFloat:
		if t := math.Trunc(d.F); t == d.F && t >= math.MinInt64 && t < -math.MinInt64 {
			return binary.BigEndian.AppendUint64(append(b, tagInt), uint64(int64(t)))
		}
		bits := math.Float64bits(d.F)
		if math.IsNaN(d.F) {
			bits = math.Float64bits(math.NaN())
		}
		return binary.BigEndian.AppendUint64(append(b, tagFloat), bits)
	case TypeString:
		return binenc.AppendString(append(b, tagString), d.S)
	case TypeBool:
		return append(b, tagBool, byte(d.I))
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
	if d.Kind == TypeNull {
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
		return append(b, tagBool, byte(d.I))
	default:
		return append(b, tagNull)
	}
}

// datumKeyLen is the number of bytes encodeDatumKey appends for d.
func datumKeyLen(d Datum) int {
	switch d.Kind {
	case TypeInt, TypeFloat:
		return 1 + 8
	case TypeString:
		return 1 + keys.EncodedBytesLen(stringBytes(d.S))
	case TypeBool:
		return 2
	default:
		return 1
	}
}

// stringBytes views the bytes of s, which must not be written.
func stringBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

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
	switch d.Kind {
	case TypeInt:
		return binary.AppendVarint(append(b, tagInt), d.I)
	case TypeFloat:
		return binary.BigEndian.AppendUint64(append(b, tagFloat), math.Float64bits(d.F))
	case TypeString:
		return binenc.AppendString(append(b, tagString), d.S)
	case TypeBool:
		return append(b, tagBool, byte(d.I))
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
		if prev.Kind == TypeString && prev.S == string(b) {
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
