package sql

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/randutil"
)

// goldenRow and goldenRowHex fix the stored row format: a uvarint column
// count, then per column a tag byte and its payload. A diff here is a format
// change — every row already written becomes unreadable.
var goldenRow = []Datum{DInt(-3), DNull, DString("héllo"), DFloat(1.5), DBool(true), DInt(300)}

const goldenRowHex = "06" + // six columns
	"0205" + // INT -3: zigzag 5
	"01" + // NULL
	"040668c3a96c6c6f" + // STRING, 6 bytes
	"033ff8000000000000" + // FLOAT 1.5, IEEE 754 bits big-endian
	"0501" + // BOOL true
	"02d804" // INT 300: zigzag 600

// encodeRowValue is row's primary index value, in a buffer of its own.
func encodeRowValue(row []Datum) []byte { return appendRowValue(nil, row) }

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameDatum compares bit for bit, so a NaN equals itself and -0 differs
// from 0.
func sameDatum(a, b Datum) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func sameRow(a, b []Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameDatum(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRowValueGolden(t *testing.T) {
	want := mustHex(t, goldenRowHex)
	if got := encodeRowValue(goldenRow); !bytes.Equal(got, want) {
		t.Fatalf("encoded row\n got %x\nwant %x", got, want)
	}
	row, err := decodeRowValue(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRow(row, goldenRow) {
		t.Fatalf("decoded row = %+v", row)
	}
}

// The values a compact encoding is most likely to get wrong: NULL comes back
// as DNull itself, zero values are not mistaken for absent ones, and every
// float bit pattern survives.
func TestRowValueEdgeValues(t *testing.T) {
	row := []Datum{
		DNull, {Kind: TypeNull, S: "ignored"},
		DInt(0), DInt(-1), DInt(math.MinInt64), DInt(math.MaxInt64),
		DString(""), DString("\x00\xff"),
		DFloat(0), DFloat(math.Copysign(0, -1)), DFloat(math.Inf(1)), DFloat(math.Inf(-1)), DFloat(math.NaN()),
		DFloat(math.SmallestNonzeroFloat64), DFloat(-math.MaxFloat64),
		DBool(false), DBool(true),
	}
	got, err := decodeRowValue(nil, encodeRowValue(row))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Datum(nil), row...)
	want[1] = DNull // a NULL carries no value
	if !sameRow(got, want) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, want)
	}
	if empty, err := decodeRowValue(nil, encodeRowValue(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty row = %v, %v", empty, err)
	}
}

// A decoded value owns its bytes: decodeRowValue, ConsumeDatum and
// decodePartial copy every STRING out of their input, which the KV layer and
// the wire reuse once they return. Only the KV node's fold reads STRINGs in
// place (readColumn), and it encodes what it keeps before the row value can
// change.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	overwrite := func(b []byte) {
		for i := range b {
			b[i] = 0xee
		}
	}
	row := []Datum{DString("key"), DInt(7), DString("a longer string value"), DNull, DString("x"), DString("")}
	value := encodeRowValue(row)
	decoded, err := decodeRowValue(nil, value)
	if err != nil {
		t.Fatal(err)
	}
	overwrite(value)
	if !sameRow(decoded, row) {
		t.Fatalf("decodeRowValue's row after its input changed = %+v, want %+v", decoded, row)
	}

	in := AppendDatum(AppendDatum(nil, DString("one")), DString("two"))
	r := binenc.NewReader(in)
	consumed := []Datum{ConsumeDatum(r), ConsumeDatum(r)}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	overwrite(in)
	if want := []Datum{DString("one"), DString("two")}; !sameRow(consumed, want) {
		t.Fatalf("ConsumeDatum's values after their input changed = %+v, want %+v", consumed, want)
	}

	p := pushPlanOf(t, q1Push) // its MAX is of a STRING column
	partial := AppendDatum(nil, DString("N"))
	for _, a := range p.aggs {
		partial = appendAggState(partial, &aggState{fn: a.fn, count: 1, isInt: true, sumI: 2, sum: 2,
			min: DString("lo"), max: DString("hi"), seen: true})
	}
	vals, states, err := decodePartial(p, partial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	overwrite(partial)
	if !sameRow(vals, []Datum{DString("N")}) {
		t.Fatalf("decodePartial's group value after its input changed = %+v", vals)
	}
	for j, a := range p.aggs {
		var want Datum
		switch a.fn {
		case aggMin:
			want = DString("lo")
		case aggMax:
			want = DString("hi")
		default:
			continue
		}
		if got := states[j].result(); !sameDatum(got, want) {
			t.Fatalf("decodePartial's aggregate %d after its input changed = %+v, want %+v", j, got, want)
		}
	}
}

func randomDatum(r *rand.Rand) Datum {
	switch r.Intn(5) {
	case 0:
		return DNull
	case 1:
		// Spread over every varint width, both signs.
		return DInt((r.Int63() >> uint(r.Intn(64))) * int64(1-2*r.Intn(2)))
	case 2:
		return DFloat(math.Float64frombits(uint64(r.Int63())<<1 | uint64(r.Intn(2))))
	case 3:
		return DString(string(randutil.RandBytes(r, r.Intn(40))))
	default:
		return DBool(r.Intn(2) == 1)
	}
}

func TestRowValueRandomRoundTrip(t *testing.T) {
	rng := randutil.NewRand(18)
	for i := 0; i < 2000; i++ {
		row := make([]Datum, rng.Intn(20))
		for j := range row {
			row[j] = randomDatum(rng)
		}
		enc := encodeRowValue(row)
		got, err := decodeRowValue(nil, enc)
		if err != nil {
			t.Fatalf("row %d: %v (encoded %x)", i, err, enc)
		}
		if !sameRow(got, row) {
			t.Fatalf("row %d round trip\n got %+v\nwant %+v", i, got, row)
		}
	}
}

func TestDecodeRowValueRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenRowHex)
	for cut := 0; cut < len(golden); cut++ {
		if row, err := decodeRowValue(nil, golden[:cut]); err == nil {
			t.Errorf("row truncated to %d of %d bytes decoded to %+v", cut, len(golden), row)
		}
	}
	for name, in := range map[string]string{
		"trailing byte":                 goldenRowHex + "00",
		"unknown tag":                   "0106",
		"tag zero":                      "0100",
		"bool out of range":             "010502",
		"string longer than input":      "0104ff01",
		"string length near 2^64":       "0104ffffffffffffffffff0161",
		"count beyond input":            "0501",
		"count near 2^64":               "ffffffffffffffffff01",
		"unterminated column count":     "80",
		"int varint longer than 64 bit": "0102ffffffffffffffffffff01",
	} {
		if row, err := decodeRowValue(nil, mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, row)
		}
	}
}

// FuzzDecodeRowValue: no input makes the decoder panic, and whatever decodes
// re-encodes to bytes that decode to the same row. A scan decodes every row
// into the buffer the last one used, so decoding behind datums already in
// dst appends exactly what decoding into nil returns, and a malformed value
// leaves them as they were.
func FuzzDecodeRowValue(f *testing.F) {
	f.Add(mustHex(f, goldenRowHex))
	f.Add([]byte{0})
	f.Add(mustHex(f, "0104ff01"))
	f.Fuzz(func(t *testing.T, in []byte) {
		prefix := []Datum{DString("kept"), DInt(-1), DNull}
		// Spare capacity, so a decode that fails part-way has room to write
		// behind the prefix.
		dst := append(make([]Datum, 0, 64), prefix...)
		appended, dirtyErr := decodeRowValue(dst, in)
		if !sameRow(appended[:len(prefix)], prefix) {
			t.Fatalf("decoding %x behind a prefix changed it to %+v", in, appended[:len(prefix)])
		}
		row, err := decodeRowValue(nil, in)
		if (err == nil) != (dirtyErr == nil) {
			t.Fatalf("%x: decoding into nil errs %v, behind a prefix %v", in, err, dirtyErr)
		}
		if err != nil {
			if len(appended) != len(prefix) {
				t.Fatalf("%x fails to decode but returns %d datums behind the prefix", in, len(appended)-len(prefix))
			}
			return
		}
		if !sameRow(appended[len(prefix):], row) {
			t.Fatalf("%x decodes to %+v, behind a prefix to %+v", in, row, appended[len(prefix):])
		}
		enc := encodeRowValue(row)
		again, err := decodeRowValue(nil, enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if !sameRow(again, row) {
			t.Fatalf("%x decodes to %+v, its re-encoding to %+v", in, row, again)
		}
	})
}

// A primary key is built in one exactly sized allocation, byte for byte the
// prefix followed by each value's key encoding, for every kind of value
// (a STRING's 0x00 bytes are escaped, so they count twice).
func TestPrimaryKeyExactlySized(t *testing.T) {
	desc := &TableDescriptor{ID: 7}
	for _, vals := range [][]Datum{
		{DInt(-3)},
		{DString("a\x00b\x00"), DFloat(-0.5), DBool(true), DNull},
		{DString(""), DInt(1 << 40), DBool(false)},
	} {
		want := keys.MakeTableIndexPrefix(9, desc.ID, keys.PrimaryIndexID)
		for _, d := range vals {
			want = encodeDatumKey(want, d)
		}
		var got keys.Key
		if n := testing.AllocsPerRun(10, func() { got = appendKeyFromValues(nil, 9, desc, vals) }); n != 1 {
			t.Fatalf("%v: %v allocations, want 1", vals, n)
		}
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("%v: key %x (capacity %d), want %x exactly", vals, got, cap(got), want)
		}
	}
}
