package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"

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
		names := make([]string, 0, len(m.Params))
		for name := range m.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			b = binenc.AppendString(b, name)
			b = binenc.AppendString(b, m.Params[name])
		}
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

// consumeDatums reads a counted datum list; an empty one is nil. Every datum
// is at least its tag byte, which bounds the count.
func consumeDatums(r *binenc.Reader) []sql.Datum {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ds := make([]sql.Datum, n)
	for i := range ds {
		ds[i] = sql.ConsumeDatum(r)
	}
	return ds
}

// Decode unmarshals a payload into out, a pointer to the message struct the
// frame's type byte names. out is overwritten whole and shares no memory with
// payload.
func Decode(payload []byte, out interface{}) error {
	r := binenc.NewReader(payload)
	switch m := out.(type) {
	case *Startup:
		// A parameter is at least its two length bytes.
		n := r.Count(2)
		m.Params = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			name := r.Str()
			if i > 0 && name <= prev {
				r.Fail()
			}
			m.Params[name] = r.Str()
			prev = name
		}
	case *Auth:
		*m = Auth{OK: r.Bool(), Msg: r.Str()}
	case *Query:
		*m = Query{TraceID: r.Uint64(), SpanID: r.Uint64(), SQL: r.Str(), Args: consumeDatums(r)}
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
				m.Rows[i] = consumeDatums(r)
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
