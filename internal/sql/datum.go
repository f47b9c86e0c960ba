package sql

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

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

// Compare orders two datums. NULL sorts first. Numeric kinds compare by
// value across INT/FLOAT.
func (d Datum) Compare(o Datum) int {
	switch {
	case d.Null && o.Null:
		return 0
	case d.Null:
		return -1
	case o.Null:
		return 1
	}
	// Cross-numeric comparison.
	if d.isNumeric() && o.isNumeric() {
		a, b := d.asFloat(), o.asFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	switch d.Kind {
	case TypeString:
		return strings.Compare(d.S, o.S)
	case TypeBool:
		switch {
		case !d.B && o.B:
			return -1
		case d.B && !o.B:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
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

// groupKey renders a canonical string key for GROUP BY hashing.
func (d Datum) groupKey() string {
	if d.Null {
		return "\x00null"
	}
	return fmt.Sprintf("%d:%s", d.Kind, d.String())
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
	if d.Null {
		return append(b, tagNull)
	}
	switch d.Kind {
	case TypeInt:
		return binary.AppendVarint(append(b, tagInt), d.I)
	case TypeFloat:
		return binary.BigEndian.AppendUint64(append(b, tagFloat), math.Float64bits(d.F))
	case TypeString:
		return binenc.AppendString(append(b, tagString), d.S)
	case TypeBool:
		return binenc.AppendBool(append(b, tagBool), d.B)
	default:
		return append(b, tagNull)
	}
}

// ConsumeDatum reads one AppendDatum encoding from r. A malformed or
// truncated datum fails r and yields the zero Datum.
func ConsumeDatum(r *binenc.Reader) Datum {
	switch tag := r.Byte(); tag {
	case tagNull:
		return DNull
	case tagInt:
		return DInt(r.Varint())
	case tagFloat:
		return DFloat(math.Float64frombits(r.Uint64()))
	case tagString:
		return DString(r.Str())
	case tagBool:
		return DBool(r.Bool())
	default:
		// Byte returns 0 once r has failed, and 0 is no tag, so this arm
		// covers truncation as well as an unknown tag.
		r.Fail()
		return Datum{}
	}
}
