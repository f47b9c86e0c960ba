package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"crdbserverless/internal/randutil"
	"crdbserverless/internal/sql"
)

// golden fixes each message's payload bytes. A diff here is a protocol
// change: a client, proxy and SQL node built on either side of it no longer
// understand each other.
var golden = []struct {
	name string
	typ  byte
	msg  interface{}
	hex  string
}{
	{"startup", MsgStartup, &Startup{Params: map[string]string{"user": "app", "tenant": "acme"}},
		"02" + // two parameters, keys ascending
			"0674656e616e74" + "0461636d65" + // tenant=acme
			"0475736572" + "03617070"}, // user=app
	{"auth", MsgAuth, &Auth{OK: false, Msg: "no"},
		"00" + "026e6f"},
	{"auth ok", MsgAuth, &Auth{OK: true},
		"01" + "00"},
	{"query", MsgQuery, &Query{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718, SQL: "SELECT $1", Args: []sql.Datum{sql.DInt(42)}},
		"0102030405060708" + "1112131415161718" + // trace ID, span ID
			"0953454c454354202431" + // SQL
			"01" + "0254"}, // one argument: INT 42, zigzag 84
	{"query without args", MsgQuery, &Query{SQL: "BEGIN"},
		"0000000000000000" + "0000000000000000" + "05424547494e" + "00"},
	{"result", MsgResult, &Result{
		Columns:      []string{"k", "v"},
		Rows:         [][]sql.Datum{{sql.DInt(1), sql.DString("x")}, {sql.DNull, sql.DBool(false)}},
		RowsAffected: 2,
	},
		"02" + "016b" + "0176" + // two columns
			"02" + // two rows
			"02" + "0202" + "040178" + // INT 1, STRING "x"
			"02" + "01" + "0500" + // NULL, BOOL false
			"04" + // RowsAffected 2, zigzag
			"00"}, // no error
	{"error result", MsgResult, &Result{Err: "boom"},
		"00" + "00" + "00" + "04626f6f6d"},
	{"serialize", MsgSerialize, &Serialize{}, ""},
	{"serialized", MsgSerialized, &Serialized{Data: []byte{0xde, 0xad}},
		"02dead" + "00"},
	{"serialized error", MsgSerialized, &Serialized{Err: "busy"},
		"00" + "0462757379"},
	{"restore", MsgRestore, &Restore{Data: []byte{0xbe, 0xef}},
		"02beef"},
	{"terminate", MsgTerminate, &Terminate{}, ""},
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// blankOf returns a fresh zero message of msg's type.
func blankOf(msg interface{}) interface{} {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface()
}

func TestPayloadGolden(t *testing.T) {
	for _, g := range golden {
		want := mustHex(t, g.hex)
		got, err := appendPayload(nil, g.msg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s payload\n got %x\nwant %x", g.name, got, want)
		}
		out := blankOf(g.msg)
		if err := Decode(want, out); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !reflect.DeepEqual(out, g.msg) {
			t.Errorf("%s decoded to %+v, want %+v", g.name, out, g.msg)
		}
	}
}

// The header is [type][uint32 big-endian payload length] and the frame goes
// out in one Write.
func TestFrameGoldenAndSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteMessage(&w, MsgAuth, &Auth{OK: true}); err != nil {
		t.Fatal(err)
	}
	if want := mustHex(t, "52"+"00000002"+"0100"); !bytes.Equal(w.buf.Bytes(), want) || w.writes != 1 {
		t.Fatalf("frame %x in %d writes, want %x in 1", w.buf.Bytes(), w.writes, want)
	}
	// A message written after a larger one must not carry its bytes: the
	// frame buffer is reused.
	w = countingWriter{}
	if err := WriteMessage(&w, MsgResult, &Result{Err: "a long error message to grow the pooled buffer"}); err != nil {
		t.Fatal(err)
	}
	w = countingWriter{}
	if err := WriteMessage(&w, MsgTerminate, &Terminate{}); err != nil {
		t.Fatal(err)
	}
	if want := mustHex(t, "58"+"00000000"); !bytes.Equal(w.buf.Bytes(), want) || w.writes != 1 {
		t.Fatalf("frame %x in %d writes, want %x in 1", w.buf.Bytes(), w.writes, want)
	}
	if err := WriteMessage(&w, MsgQuery, Query{}); err == nil {
		t.Fatal("a message passed by value was encoded")
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// A Reader hands back the frame as it was written, so a relay can forward it
// untouched.
func TestReaderReturnsTheWholeFrame(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteMessage(&stream, MsgQuery, &Query{SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	written := append([]byte(nil), stream.Bytes()...)
	frame, err := NewReader(&stream).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, written) || frame[0] != MsgQuery {
		t.Fatalf("frame %x, written %x", frame, written)
	}
	var q Query
	if err := Decode(frame[HeaderSize:], &q); err != nil || q.SQL != "SELECT 1" {
		t.Fatalf("payload decoded to %+v, %v", q, err)
	}
}

// The proxy's stamp is the encoder's output: overwriting the 16 bytes in an
// encoded Query gives exactly the encoding of that Query with the new IDs.
func TestStampQueryTraceMatchesEncoding(t *testing.T) {
	q := Query{SQL: "SELECT v FROM t WHERE k = $1", Args: []sql.Datum{sql.DInt(7), sql.DString("x")}}
	payload, err := appendPayload(nil, &q)
	if err != nil {
		t.Fatal(err)
	}
	if !StampQueryTrace(payload, 0xfeedfacecafebeef, 0x0123456789abcdef) {
		t.Fatal("a well-formed query was not stamped")
	}
	q.TraceID, q.SpanID = 0xfeedfacecafebeef, 0x0123456789abcdef
	want, _ := appendPayload(nil, &q)
	if !bytes.Equal(payload, want) {
		t.Fatalf("stamped\n got %x\nwant %x", payload, want)
	}
	var out Query
	if err := Decode(payload, &out); err != nil || !reflect.DeepEqual(out, q) {
		t.Fatalf("stamped payload decoded to %+v, %v", out, err)
	}
	short := make([]byte, 15)
	if StampQueryTrace(short, 1, 2) || !bytes.Equal(short, make([]byte, 15)) {
		t.Fatalf("a 15-byte payload was stamped: %x", short)
	}
}

func TestResultRandomRoundTrip(t *testing.T) {
	rng := randutil.NewRand(18)
	randDatum := func() sql.Datum {
		switch rng.Intn(5) {
		case 0:
			return sql.DNull
		case 1:
			return sql.DInt((rng.Int63() >> uint(rng.Intn(64))) * int64(1-2*rng.Intn(2)))
		case 2:
			// Finite or infinite, but not NaN: DeepEqual compares below.
			if f := math.Float64frombits(rng.Uint64()); f == f {
				return sql.DFloat(f)
			}
			return sql.DFloat(math.Inf(-1))
		case 3:
			return sql.DString(string(randutil.RandBytes(rng, rng.Intn(40))))
		default:
			return sql.DBool(rng.Intn(2) == 1)
		}
	}
	randRow := func() []sql.Datum {
		n := rng.Intn(6)
		if n == 0 {
			return nil
		}
		row := make([]sql.Datum, n)
		for i := range row {
			row[i] = randDatum()
		}
		return row
	}
	for i := 0; i < 1000; i++ {
		res := &Result{RowsAffected: rng.Intn(1<<20) - 1<<19, Err: string(randutil.RandBytes(rng, rng.Intn(3)*10))}
		for c := rng.Intn(5); c > 0; c-- {
			res.Columns = append(res.Columns, string(randutil.RandBytes(rng, rng.Intn(12))))
		}
		for r := rng.Intn(8); r > 0; r-- {
			res.Rows = append(res.Rows, randRow())
		}
		q := &Query{TraceID: rng.Uint64(), SpanID: rng.Uint64(), SQL: string(randutil.RandBytes(rng, rng.Intn(200))), Args: randRow()}
		for _, msg := range []interface{}{res, q} {
			payload, err := appendPayload(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			out := blankOf(msg)
			if err := Decode(payload, out); err != nil {
				t.Fatalf("message %d: %v (%x)", i, err, payload)
			}
			if !reflect.DeepEqual(out, msg) {
				t.Fatalf("message %d round trip\n got %+v\nwant %+v", i, out, msg)
			}
		}
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	// Every golden payload cut short at every offset. A cut that leaves a
	// shorter well-formed message cannot exist: every field is either
	// length-prefixed or fixed-width, and the last one ends the payload.
	for _, g := range golden {
		payload := mustHex(t, g.hex)
		for cut := 0; cut < len(payload); cut++ {
			out := blankOf(g.msg)
			if err := Decode(payload[:cut], out); err == nil {
				t.Errorf("%s truncated to %d of %d bytes decoded to %+v", g.name, cut, len(payload), out)
			}
		}
		if err := Decode(append(payload, 0), blankOf(g.msg)); err == nil {
			t.Errorf("%s with a trailing byte decoded", g.name)
		}
	}
	for _, c := range []struct {
		name string
		out  interface{}
		hex  string
	}{
		{"startup keys out of order", &Startup{}, "02" + "0162" + "00" + "0161" + "00"},
		{"startup key repeated", &Startup{}, "02" + "0161" + "00" + "0161" + "00"},
		{"startup count beyond input", &Startup{}, "03" + "0161" + "00"},
		{"startup count near 2^64", &Startup{}, "ffffffffffffffffff01"},
		{"auth flag out of range", &Auth{}, "02" + "00"},
		{"query arg count beyond input", &Query{}, "0000000000000000" + "0000000000000000" + "00" + "05" + "01"},
		{"query arg with unknown tag", &Query{}, "0000000000000000" + "0000000000000000" + "00" + "01" + "09"},
		{"query SQL longer than input", &Query{}, "0000000000000000" + "0000000000000000" + "7f" + "41"},
		{"result column count near 2^64", &Result{}, "ffffffffffffffffff01"},
		{"result row count beyond input", &Result{}, "00" + "7f" + "00" + "00"},
		{"result cell count beyond input", &Result{}, "00" + "01" + "7f" + "00" + "00"},
		{"serialized data longer than input", &Serialized{}, "05" + "aa" + "00"},
		{"restore data length near 2^64", &Restore{}, "ffffffffffffffffff01" + "aa"},
	} {
		if err := Decode(mustHex(t, c.hex), c.out); err == nil {
			t.Errorf("%s (%s) decoded to %+v", c.name, c.hex, c.out)
		}
	}
	if err := Decode(nil, Query{}); err == nil {
		t.Error("decoding into a non-pointer succeeded")
	}
}

// FuzzWireDecode: no payload makes a decoder panic, and whatever decodes
// re-encodes to bytes that decode to the same message. The first argument
// picks the message type the payload is decoded as.
func FuzzWireDecode(f *testing.F) {
	example := map[byte]interface{}{}
	for _, g := range golden {
		f.Add(g.typ, mustHex(f, g.hex))
		example[g.typ] = g.msg
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if example[typ] == nil {
			return
		}
		msg := blankOf(example[typ])
		if err := Decode(payload, msg); err != nil {
			return
		}
		// Compare encodings, not structs: a NaN argument is not DeepEqual to
		// itself, and its bits are what must survive.
		enc, err := appendPayload(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		again := blankOf(example[typ])
		if err := Decode(enc, again); err != nil {
			t.Fatalf("re-encoding of %c %x does not decode: %v (%x)", typ, payload, err, enc)
		}
		if enc2, _ := appendPayload(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%c %x re-encodes to %x, and that to %x", typ, payload, enc, enc2)
		}
	})
}

// A connection decodes every query into one Query. A statement without
// arguments (BEGIN, COMMIT) keeps the Query's argument array, so the next
// statement's arguments fill it again; and a text the node holds is taken
// from it, not copied. After the first decode, a 3-argument, a 0-argument
// and a 3-argument query, their texts held, allocate nothing.
func TestDecodeQueryReusesArgsAcrossEmptyList(t *testing.T) {
	queries := []Query{
		{SQL: "SELECT c FROM t WHERE a = $1 AND b = $2 AND c = $3", Args: []sql.Datum{sql.DInt(1), sql.DInt(2), sql.DInt(3)}},
		{SQL: "BEGIN"},
		{SQL: "UPDATE t SET c = c + 1 WHERE a = $1 AND b = $2 AND d = $3", Args: []sql.Datum{sql.DInt(4), sql.DFloat(5), sql.DBool(true)}},
	}
	held := make(map[string]string)
	var payloads [][]byte
	for _, q := range queries {
		held[q.SQL] = q.SQL
		p, err := appendPayload(nil, &q)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	texts := func(b []byte) (string, bool) {
		s, ok := held[string(b)]
		return s, ok
	}
	var q Query
	decode := func() {
		for i, p := range payloads {
			if err := DecodeQuery(p, &q, texts); err != nil {
				t.Fatal(err)
			}
			if q.SQL != queries[i].SQL || len(q.Args) != len(queries[i].Args) {
				t.Fatalf("query %d decoded to %+v", i, q)
			}
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Fatalf("decoding three queries into one Query: %v allocations, want 0", n)
	}
}
