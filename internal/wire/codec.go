package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/sql"
)

// Payload layouts. A string or byte field is a uvarint length and that many
// bytes; a count is a uvarint; a datum is sql.AppendDatum's encoding.
//
//	Startup     count, then per parameter: key, value — keys strictly ascending
//	Auth        OK (1 byte, 0 or 1), Msg
//	Query       TraceID, SpanID (8 bytes each, big-endian), SQL, count, args
//	Result      count, column names; count, then per row: count, datums;
//	            RowsAffected (zigzag varint); Err
//	Serialize   empty
//	Serialized  Data, Err
//	Restore     Data
//	Terminate   empty
//
// Decoding takes bytes from outside the process: every length and count is
// checked against the bytes that remain before anything is allocated, and
// bytes left over after the last field are an error.

// queryTraceSize is the fixed-width head of a Query payload, TraceID then
// SpanID, which StampQueryTrace rewrites without parsing the rest.
const queryTraceSize = 16

// appendPayload appends msg's payload to b. It returns b unchanged beside the
// error when msg is not a pointer to one of the message structs.
func appendPayload(b []byte, msg interface{}) ([]byte, error) {
	switch m := msg.(type) {
	case *Startup:
		b = binenc.AppendStringMap(b, m.Params)
	case *Auth:
		b = binenc.AppendBool(b, m.OK)
		b = binenc.AppendString(b, m.Msg)
	case *Query:
		b = binary.BigEndian.AppendUint64(b, m.TraceID)
		b = binary.BigEndian.AppendUint64(b, m.SpanID)
		b = binenc.AppendString(b, m.SQL)
		b = appendDatums(b, m.Args)
	case *Result:
		b = binary.AppendUvarint(b, uint64(len(m.Columns)))
		for _, col := range m.Columns {
			b = binenc.AppendString(b, col)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Rows)))
		for _, row := range m.Rows {
			b = appendDatums(b, row)
		}
		b = binary.AppendVarint(b, int64(m.RowsAffected))
		b = binenc.AppendString(b, m.Err)
	case *Serialized:
		b = binenc.AppendBytes(b, m.Data)
		b = binenc.AppendString(b, m.Err)
	case *Restore:
		b = binenc.AppendBytes(b, m.Data)
	case *Serialize, *Terminate:
	default:
		return b, fmt.Errorf("unsupported message %v", reflect.TypeOf(msg))
	}
	return b, nil
}

func appendDatums(b []byte, ds []sql.Datum) []byte {
	b = binary.AppendUvarint(b, uint64(len(ds)))
	for _, d := range ds {
		b = sql.AppendDatum(b, d)
	}
	return b
}

// consumeDatums reads a counted datum list into dst's array when it has
// room, and into a new one otherwise; an empty list keeps dst's array, so
// the list after it can use it. Every datum is at least its tag byte, which
// bounds the count.
func consumeDatums(r *binenc.Reader, dst []sql.Datum) []sql.Datum {
	n := r.Count(1)
	ds := dst[:0]
	if cap(ds) < n {
		ds = make([]sql.Datum, 0, n)
	}
	for range n {
		ds = append(ds, sql.ConsumeDatum(r))
	}
	return ds
}

// Decode unmarshals a payload into out, a pointer to the message struct the
// frame's type byte names. out is overwritten whole and shares no memory with
// payload. A Query decoded over one keeps its SQL when the text is the same
// and its Args array when it has room: a connection that decodes every query
// into one Query allocates nothing for the text of a statement it repeats,
// nor for arguments that hold no string.
func Decode(payload []byte, out interface{}) error {
	if q, ok := out.(*Query); ok {
		return DecodeQuery(payload, q, nil)
	}
	r := binenc.NewReader(payload)
	switch m := out.(type) {
	case *Startup:
		m.Params = r.StringMap()
	case *Auth:
		*m = Auth{OK: r.Bool(), Msg: r.Str()}
	case *Result:
		*m = Result{}
		if n := r.Count(1); n > 0 {
			m.Columns = make([]string, n)
			for i := range m.Columns {
				m.Columns[i] = r.Str()
			}
		}
		// A row is at least its count byte.
		if n := r.Count(1); n > 0 {
			m.Rows = make([][]sql.Datum, n)
			for i := range m.Rows {
				m.Rows[i] = consumeDatums(r, nil)
			}
		}
		m.RowsAffected = int(r.Varint())
		m.Err = r.Str()
	case *Serialized:
		*m = Serialized{Data: append([]byte(nil), r.Bytes()...), Err: r.Str()}
	case *Restore:
		*m = Restore{Data: append([]byte(nil), r.Bytes()...)}
	case *Serialize, *Terminate:
	default:
		return fmt.Errorf("wire: decoding into unsupported %v", reflect.TypeOf(out))
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("wire: decoding %v: %w", reflect.TypeOf(out), err)
	}
	return nil
}

// DecodeQuery is Decode of a Query payload into q, taking the text from
// texts when it differs from q's: texts returns a string equal to its
// argument, if it holds one — a SQL node's statement cache — so a text that
// alternates with others is copied only when nothing holds it yet. A nil
// texts holds none.
func DecodeQuery(payload []byte, q *Query, texts func([]byte) (string, bool)) error {
	r := binenc.NewReader(payload)
	q.TraceID, q.SpanID = r.Uint64(), r.Uint64()
	if text := r.Bytes(); q.SQL != string(text) {
		held, ok := "", false
		if texts != nil {
			held, ok = texts(text)
		}
		if !ok {
			held = string(text)
		}
		q.SQL = held
	}
	q.Args = consumeDatums(r, q.Args)
	if err := r.Done(); err != nil {
		return fmt.Errorf("wire: decoding %v: %w", reflect.TypeOf(q), err)
	}
	return nil
}

// StampQueryTrace overwrites the trace IDs at the head of an encoded Query
// payload in place; the result is byte for byte what encoding that Query with
// these IDs gives. It reports false and leaves payload alone when payload is
// too short to be a Query.
func StampQueryTrace(payload []byte, traceID, spanID uint64) bool {
	if len(payload) < queryTraceSize {
		return false
	}
	binary.BigEndian.PutUint64(payload, traceID)
	binary.BigEndian.PutUint64(payload[8:], spanID)
	return true
}
