package rowfilter

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

type row []Value

func (r row) Column(i int) (Value, bool) {
	if i < 0 || i >= len(r) {
		return Value{}, false
	}
	return r[i], true
}

func vi(v int64) Value   { return Value{Kind: KindInt, I: v} }
func vf(v float64) Value { return Value{Kind: KindFloat, F: v} }
func vs(v string) Value  { return Value{Kind: KindString, S: v} }
func vb(v bool) Value    { return Value{Kind: KindBool, B: v} }
func vnull() Value       { return Value{Null: true} }

func TestEmptyFilterMatchesAll(t *testing.T) {
	var f Filter
	if !f.Matches(row{vi(1)}) {
		t.Fatal("empty filter must match")
	}
	var nilF *Filter
	if !nilF.Matches(row{}) {
		t.Fatal("nil filter must match")
	}
}

func TestComparisonOps(t *testing.T) {
	r := row{vi(5), vs("m"), vb(true), vf(2.5)}
	cases := []struct {
		cond Cond
		want bool
	}{
		{Cond{Col: 0, Op: OpEq, Value: vi(5)}, true},
		{Cond{Col: 0, Op: OpEq, Value: vi(6)}, false},
		{Cond{Col: 0, Op: OpNe, Value: vi(6)}, true},
		{Cond{Col: 0, Op: OpLt, Value: vi(6)}, true},
		{Cond{Col: 0, Op: OpLe, Value: vi(5)}, true},
		{Cond{Col: 0, Op: OpGt, Value: vi(5)}, false},
		{Cond{Col: 0, Op: OpGe, Value: vi(5)}, true},
		{Cond{Col: 1, Op: OpLt, Value: vs("z")}, true},
		{Cond{Col: 1, Op: OpGt, Value: vs("z")}, false},
		{Cond{Col: 2, Op: OpEq, Value: vb(true)}, true},
		{Cond{Col: 2, Op: OpGt, Value: vb(false)}, true},
		{Cond{Col: 3, Op: OpEq, Value: vf(2.5)}, true},
		// Cross-numeric: INT column vs FLOAT constant.
		{Cond{Col: 0, Op: OpLt, Value: vf(5.5)}, true},
		{Cond{Col: 3, Op: OpGt, Value: vi(2)}, true},
	}
	for _, c := range cases {
		f := Filter{Conds: []Cond{c.cond}}
		if got := f.Matches(r); got != c.want {
			t.Fatalf("col%d %s %v: got %v, want %v", c.cond.Col, c.cond.Op, c.cond.Value, got, c.want)
		}
	}
}

func TestNullNeverMatches(t *testing.T) {
	r := row{vnull()}
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		f := Filter{Conds: []Cond{{Col: 0, Op: op, Value: vi(1)}}}
		if f.Matches(r) {
			t.Fatalf("NULL %s 1 matched", op)
		}
	}
	// NULL constant also never matches.
	f := Filter{Conds: []Cond{{Col: 0, Op: OpEq, Value: vnull()}}}
	if f.Matches(row{vi(1)}) {
		t.Fatal("x = NULL matched")
	}
}

func TestConjunction(t *testing.T) {
	f := Filter{Conds: []Cond{
		{Col: 0, Op: OpGe, Value: vi(10)},
		{Col: 0, Op: OpLt, Value: vi(20)},
	}}
	if !f.Matches(row{vi(15)}) || f.Matches(row{vi(5)}) || f.Matches(row{vi(20)}) {
		t.Fatal("range conjunction broken")
	}
}

func TestMismatchedTypesAndBounds(t *testing.T) {
	f := Filter{Conds: []Cond{{Col: 0, Op: OpEq, Value: vs("x")}}}
	if f.Matches(row{vi(1)}) {
		t.Fatal("int = string matched")
	}
	f = Filter{Conds: []Cond{{Col: 9, Op: OpEq, Value: vi(1)}}}
	if f.Matches(row{vi(1)}) {
		t.Fatal("out-of-range column matched")
	}
	if got := Op(99).String(); got == "" {
		t.Fatal("unknown op string empty")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Filter{Conds: []Cond{
		{Col: 2, Op: OpLe, Value: vf(3.14)},
		{Col: 0, Op: OpEq, Value: vs("hello")},
	}}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Conds) != 2 || out.Conds[0].Value.F != 3.14 || out.Conds[1].Value.S != "hello" {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

// goldenFilter and goldenFilterHex fix the filter format a filtered scan
// carries to the KV node. A diff here is a format change: SQL and KV nodes on
// either side of it could not push filters to each other.
var goldenFilter = &Filter{Conds: []Cond{
	{Col: 2, Op: OpLe, Value: vf(1.5)},
	{Col: 0, Op: OpEq, Value: vs("hi")},
	{Col: 300, Op: OpGt, Value: vi(-3)},
	{Col: 1, Op: OpNe, Value: vb(true)},
	{Col: 4, Op: OpGe, Value: Value{Kind: KindString, Null: true}},
}}

const goldenFilterHex = "05" + // five conditions
	"02" + "03" + "01" + "00" + "3ff8000000000000" + // col 2 <= FLOAT 1.5
	"00" + "00" + "02" + "00" + "026869" + // col 0 = STRING "hi"
	"ac02" + "04" + "00" + "00" + "05" + // col 300 > INT -3 (zigzag 5)
	"01" + "01" + "03" + "00" + "01" + // col 1 != BOOL true
	"04" + "05" + "02" + "01" // col 4 >= NULL: no payload

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFilterGolden(t *testing.T) {
	want := mustHex(t, goldenFilterHex)
	if got := goldenFilter.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("encoded filter\n got %x\nwant %x", got, want)
	}
	got, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenFilter) {
		t.Fatalf("decoded filter = %+v", got)
	}
	// Only the kind's own field crosses: a stray field is not carried.
	stray := &Filter{Conds: []Cond{{Op: OpEq, Value: Value{Kind: KindInt, I: 7, S: "stray"}}}}
	if got, err := Decode(stray.Encode()); err != nil || got.Conds[0].Value != vi(7) {
		t.Fatalf("stray field round trip = %+v, %v", got, err)
	}
}

func TestDecodeFilterRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenFilterHex)
	for cut := 0; cut < len(golden); cut++ {
		if f, err := Decode(golden[:cut]); err == nil {
			t.Errorf("filter truncated to %d of %d bytes decoded to %+v", cut, len(golden), f)
		}
	}
	// One condition: col 0 = BOOL false.
	const one = "01" + "00" + "00" + "03" + "00" + "00"
	if _, err := Decode(mustHex(t, one)); err != nil {
		t.Fatalf("the undamaged condition: %v", err)
	}
	for name, in := range map[string]string{
		"trailing byte":          one + "00",
		"unknown op":             "01" + "00" + "06" + "03" + "00" + "00",
		"unknown kind":           "01" + "00" + "00" + "04" + "00" + "00",
		"null out of range":      "01" + "00" + "00" + "03" + "02" + "00",
		"bool out of range":      "01" + "00" + "00" + "03" + "00" + "02",
		"column beyond int32":    "01" + "8080808008" + "00" + "03" + "00" + "00",
		"count beyond input":     "02" + one[2:],
		"count near 2^64":        "ffffffffffffffffff01" + one[2:],
		"string longer than it":  "01" + "00" + "00" + "02" + "00" + "7f68",
		"float cut short":        "01" + "00" + "00" + "01" + "00" + "3ff8",
		"unterminated int value": "01" + "00" + "00" + "00" + "00" + "80",
	} {
		if f, err := Decode(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, f)
		}
	}
}

// FuzzDecodeFilter: no input makes the decoder panic, and whatever decodes
// re-encodes to bytes that decode and encode to the same bytes again (bytes,
// not values: a NaN constant never equals itself).
func FuzzDecodeFilter(f *testing.F) {
	f.Add(mustHex(f, goldenFilterHex))
	f.Add([]byte{0})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		filter, err := Decode(in)
		if err != nil {
			return
		}
		enc := filter.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if enc2 := again.Encode(); !bytes.Equal(enc2, enc) {
			t.Fatalf("%x re-encodes to %x, then to %x", in, enc, enc2)
		}
	})
}

func TestMatchesConsistentWithComparisonProperty(t *testing.T) {
	// Property: for int columns, Matches agrees with direct comparison.
	f := func(col, constant int32, opSel uint8) bool {
		op := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[opSel%6]
		filter := Filter{Conds: []Cond{{Col: 0, Op: op, Value: vi(int64(constant))}}}
		got := filter.Matches(row{vi(int64(col))})
		var want bool
		switch op {
		case OpEq:
			want = col == constant
		case OpNe:
			want = col != constant
		case OpLt:
			want = col < constant
		case OpLe:
			want = col <= constant
		case OpGt:
			want = col > constant
		case OpGe:
			want = col >= constant
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// goldenAggSpec and goldenAggSpecHex fix the format of a pushed-down
// aggregation: the golden filter, then the aggregation behind it.
var goldenAggSpec = &AggSpec{
	Filter:  *goldenFilter,
	GroupBy: []int{4, 300},
	Aggs:    []Agg{{Fn: AggCountRows}, {Fn: AggSum, Col: 2}, {Fn: AggAvg, Col: 2}, {Fn: AggMax, Col: 130}},
}

const goldenAggSpecHex = goldenFilterHex +
	"02" + "04" + "ac02" + // GROUP BY col 4, col 300
	"04" + // four aggregates
	"00" + "00" + // COUNT(*)
	"02" + "02" + // SUM(col 2)
	"03" + "02" + // AVG(col 2)
	"05" + "8201" // MAX(col 130)

func TestAggregateSpecGolden(t *testing.T) {
	want := mustHex(t, goldenAggSpecHex)
	if got := goldenAggSpec.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("encoded spec\n got %x\nwant %x", got, want)
	}
	got, err := decodeAggSpec(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenAggSpec) {
		t.Fatalf("decoded spec = %+v", got)
	}
	// A spec is not a filter, and a filter is not a spec: neither decoder
	// takes the other's bytes, so no reader mistakes partials for rows.
	if f, err := Decode(want); err == nil {
		t.Fatalf("a spec decoded as the filter %+v", f)
	}
	if s, err := decodeAggSpec(mustHex(t, goldenFilterHex)); err == nil {
		t.Fatalf("a bare filter decoded as the spec %+v", s)
	}
	// The empty spec, COUNT(*) over no filter and no group.
	empty := &AggSpec{Aggs: []Agg{{Fn: AggCountRows}}}
	if got, err := decodeAggSpec(empty.Encode()); err != nil || len(got.Aggs) != 1 || !got.Filter.Empty() {
		t.Fatalf("COUNT(*) spec round trip = %+v, %v", got, err)
	}
}

func TestDecodeAggregateSpecRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenAggSpecHex)
	for cut := 0; cut < len(golden); cut++ {
		if s, err := decodeAggSpec(golden[:cut]); err == nil {
			t.Errorf("spec truncated to %d of %d bytes decoded to %+v", cut, len(golden), s)
		}
	}
	// No condition, GROUP BY col 1, COUNT(col 0).
	const one = "00" + "0101" + "01" + "0100"
	if _, err := decodeAggSpec(mustHex(t, one)); err != nil {
		t.Fatalf("the undamaged spec: %v", err)
	}
	for name, in := range map[string]string{
		"trailing byte":             one + "00",
		"unknown function":          "00" + "0101" + "01" + "0600",
		"group column beyond int32": "00" + "01" + "8080808008" + "01" + "0100",
		"agg column beyond int32":   "00" + "0101" + "01" + "01" + "8080808008",
		"group count beyond input":  "00" + "05" + "01" + "01" + "0100",
		"agg count beyond input":    "00" + "0101" + "03" + "0100",
		"agg count near 2^64":       "00" + "0101" + "ffffffffffffffffff01" + "0100",
		"no aggregate count":        "00" + "0101",
	} {
		if s, err := decodeAggSpec(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, s)
		}
	}
}

// A reader that keeps its AggSpec decodes spec after spec into it without
// allocating (but for a string constant's bytes), and a short spec decoded
// over a long one keeps nothing of it.
func TestDecodeAggSpecIntoReuses(t *testing.T) {
	golden := mustHex(t, goldenAggSpecHex)
	q1 := (&AggSpec{
		Filter:  Filter{Conds: []Cond{{Col: 3, Op: OpLe, Value: vi(2400)}}},
		GroupBy: []int{1},
		Aggs:    []Agg{{Fn: AggSum, Col: 2}, {Fn: AggAvg, Col: 2}, {Fn: AggCountRows}},
	}).Encode()
	one := (&AggSpec{GroupBy: []int{1}, Aggs: []Agg{{Fn: AggCount}}}).Encode()
	var s AggSpec
	if err := DecodeAggSpecInto(&s, golden); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeAggSpecInto(&s, q1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding into a used spec allocates %v times", allocs)
	}
	if err := DecodeAggSpecInto(&s, one); err != nil {
		t.Fatal(err)
	}
	if got := s.Encode(); !bytes.Equal(got, one) {
		t.Fatalf("decoded over the golden spec, %x re-encodes to %x", one, got)
	}
	if err := DecodeInto(&s.Filter, mustHex(t, goldenFilterHex)); err != nil || len(s.Filter.Conds) != len(goldenAggSpec.Filter.Conds) {
		t.Fatalf("filter decoded into a used spec: %+v, %v", s.Filter, err)
	}
}

func decodeAggSpec(b []byte) (*AggSpec, error) {
	s := &AggSpec{}
	if err := DecodeAggSpecInto(s, b); err != nil {
		return nil, err
	}
	return s, nil
}

// FuzzDecodeAggSpec: a spec arrives at the KV node inside a request, so no
// input makes its decoder panic, and whatever decodes re-encodes to bytes
// that decode and encode to the same bytes again.
func FuzzDecodeAggSpec(f *testing.F) {
	f.Add(mustHex(f, goldenAggSpecHex))
	f.Add((&AggSpec{Aggs: []Agg{{Fn: AggCountRows}}}).Encode())
	f.Add(mustHex(f, goldenFilterHex))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := decodeAggSpec(in)
		// Decoding into a used spec takes and yields what a fresh decode does.
		used := *goldenAggSpec
		used.Filter.Conds = slices.Clone(used.Filter.Conds)
		used.GroupBy, used.Aggs = slices.Clone(used.GroupBy), slices.Clone(used.Aggs)
		if uerr := DecodeAggSpecInto(&used, in); (uerr == nil) != (err == nil) {
			t.Fatalf("%x: fresh decode %v, into a used spec %v", in, err, uerr)
		}
		if err != nil {
			return
		}
		enc := s.Encode()
		if got := used.Encode(); !bytes.Equal(got, enc) {
			t.Fatalf("%x decodes into a used spec as %x, fresh as %x", in, got, enc)
		}
		again, err := decodeAggSpec(enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if enc2 := again.Encode(); !bytes.Equal(enc2, enc) {
			t.Fatalf("%x re-encodes to %x, then to %x", in, enc, enc2)
		}
	})
}
