// Package rowfilter defines a restricted, serializable row predicate that
// can be evaluated inside the KV layer — the "row filtering push-down" the
// paper lists as future work (§8): "performing row filtering on the KV node
// rather than the SQL node would bring efficiency gains" for analytical
// queries that lack an efficient index.
//
// The predicate language is deliberately tiny — a conjunction of
// single-column comparisons against constants — so the KV layer can evaluate
// it without any knowledge of SQL: the SQL layer compiles eligible WHERE
// conjuncts down to this form, and scan responses then carry only matching
// rows across the process boundary. An AggSpec goes one step further and
// asks for partial aggregates per group in place of the rows.
//
// The package sits below both the SQL layer and the KV server (neither may
// import the other), so it owns the minimal value model the two share.
package rowfilter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"crdbserverless/internal/binenc"
)

// Kind is the type of a filter constant.
type Kind byte

// Filter constant kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
)

// Op is a comparison operator.
type Op byte

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Value is a filter constant.
type Value struct {
	Kind Kind
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Cond is one column comparison: row[Col] Op Value.
type Cond struct {
	Col   int
	Op    Op
	Value Value
}

// Filter is a conjunction of conditions. The zero Filter matches every row.
type Filter struct {
	Conds []Cond
}

// Empty reports whether the filter matches everything.
func (f *Filter) Empty() bool { return f == nil || len(f.Conds) == 0 }

// RowValue is the KV-visible view of one decoded column: the evaluator
// receives column values through a RowAccessor so it never depends on the
// SQL layer's datum representation.
type RowAccessor interface {
	// Column returns the value at the given offset. ok is false when the
	// offset is out of range.
	Column(i int) (Value, bool)
}

// Matches evaluates the conjunction against a row. SQL NULL semantics apply:
// a comparison involving NULL is not true, so such rows are filtered out.
func (f *Filter) Matches(row RowAccessor) bool {
	if f.Empty() {
		return true
	}
	for _, c := range f.Conds {
		v, ok := row.Column(c.Col)
		if !ok || v.Null || c.Value.Null {
			return false
		}
		cmp, comparable := compare(v, c.Value)
		if !comparable {
			return false
		}
		switch c.Op {
		case OpEq:
			if cmp != 0 {
				return false
			}
		case OpNe:
			if cmp == 0 {
				return false
			}
		case OpLt:
			if cmp >= 0 {
				return false
			}
		case OpLe:
			if cmp > 0 {
				return false
			}
		case OpGt:
			if cmp <= 0 {
				return false
			}
		case OpGe:
			if cmp < 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// compare orders two values, with INT/FLOAT comparing numerically.
func compare(a, b Value) (int, bool) {
	num := func(v Value) (float64, bool) {
		switch v.Kind {
		case KindInt:
			return float64(v.I), true
		case KindFloat:
			return v.F, true
		default:
			return 0, false
		}
	}
	if x, ok := num(a); ok {
		y, ok2 := num(b)
		if !ok2 {
			return 0, false
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.Kind != b.Kind {
		return 0, false
	}
	switch a.Kind {
	case KindString:
		return bytes.Compare([]byte(a.S), []byte(b.S)), true
	case KindBool:
		switch {
		case !a.B && b.B:
			return -1, true
		case a.B && !b.B:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// Encoded filter: a uvarint condition count, then per condition
//
//	Col    uvarint
//	Op     1 byte
//	Kind   1 byte
//	Null   1 byte, 0 or 1
//	value  unless Null, by Kind: INT a zigzag varint, FLOAT the IEEE 754 bits
//	       (8 bytes, big-endian), STRING a uvarint length and bytes, BOOL 1 byte
//
// A decoded Value carries only its kind's field. minCondSize is a condition
// with a NULL constant, which bounds the count a filter can hold.
const minCondSize = 4

// Encode serializes the filter for transport in a KV request.
func (f *Filter) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(f.Conds)))
	for _, c := range f.Conds {
		b = binary.AppendUvarint(b, uint64(c.Col))
		b = append(b, byte(c.Op), byte(c.Value.Kind))
		b = binenc.AppendBool(b, c.Value.Null)
		if c.Value.Null {
			continue
		}
		switch c.Value.Kind {
		case KindInt:
			b = binary.AppendVarint(b, c.Value.I)
		case KindFloat:
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.Value.F))
		case KindString:
			b = binenc.AppendString(b, c.Value.S)
		case KindBool:
			b = binenc.AppendBool(b, c.Value.B)
		}
	}
	return b
}

// Decode parses a transported filter. It arrives inside a KV request, so a
// malformed filter is an error, never a panic or an allocation its length
// does not pay for. An AggSpec's bytes are a filter with an aggregation
// behind it, so Decode rejects them: nothing that reads filters alone can
// take a request for partial aggregates for a request for rows.
func Decode(b []byte) (*Filter, error) {
	f := &Filter{}
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto is Decode into f, reusing the capacity of f.Conds, so a reader
// that keeps its Filter decodes spec after spec without allocating. On error
// f holds whatever was decoded before the fault.
func DecodeInto(f *Filter, b []byte) error {
	r := binenc.NewReader(b)
	consumeFilter(r, f)
	if err := r.Done(); err != nil {
		return fmt.Errorf("rowfilter: decode: %w", err)
	}
	return nil
}

func consumeFilter(r *binenc.Reader, f *Filter) {
	n := r.Count(minCondSize)
	f.Conds = slices.Grow(f.Conds[:0], n)[:n]
	for i := range f.Conds {
		f.Conds[i] = consumeCond(r)
	}
}

func consumeCond(r *binenc.Reader) Cond {
	col := r.Uvarint()
	c := Cond{Col: int(col), Op: Op(r.Byte()), Value: Value{Kind: Kind(r.Byte()), Null: r.Bool()}}
	if col > math.MaxInt32 || c.Op > OpGe || c.Value.Kind > KindBool {
		r.Fail()
		return Cond{}
	}
	if c.Value.Null {
		return c
	}
	switch c.Value.Kind {
	case KindInt:
		c.Value.I = r.Varint()
	case KindFloat:
		c.Value.F = math.Float64frombits(r.Uint64())
	case KindString:
		c.Value.S = r.Str()
	case KindBool:
		c.Value.B = r.Bool()
	}
	return c
}

// AggFunc is an aggregate function a KV node folds rows into.
type AggFunc byte

// Aggregate functions. AVG folds what SUM does and is finished by the reader.
const (
	AggCountRows AggFunc = iota // COUNT(*): counts rows, reads no column
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// Agg is one aggregate: Fn over column Col. Col is 0 for AggCountRows.
type Agg struct {
	Fn  AggFunc
	Col int
}

// AggSpec asks the KV node for partial aggregates instead of rows: one row
// per group of the rows that pass Filter, grouped by the GroupBy columns,
// each holding the Aggs folded over its group's rows. What a partial row
// holds is the evaluator's format; rowfilter fixes only the request.
//
// An AggSpec travels where a filter does, in the Scan's Filter bytes. Its
// encoding is the filter's, then
//
//	uvarint group column count, then each column as a uvarint
//	uvarint aggregate count, then per aggregate its AggFunc byte and column
//	as a uvarint
//
// so a filter-only Scan carries exactly what it did before AggSpec existed.
type AggSpec struct {
	Filter  Filter
	GroupBy []int
	Aggs    []Agg
}

// Encode serializes the spec for transport in a KV request.
func (s *AggSpec) Encode() []byte {
	b := s.Filter.Encode()
	b = binary.AppendUvarint(b, uint64(len(s.GroupBy)))
	for _, c := range s.GroupBy {
		b = binary.AppendUvarint(b, uint64(c))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Aggs)))
	for _, a := range s.Aggs {
		b = append(b, byte(a.Fn))
		b = binary.AppendUvarint(b, uint64(a.Col))
	}
	return b
}

// DecodeAggSpecInto parses a transported AggSpec into s, reusing the
// capacity of its slices as DecodeInto does. Like Decode it fails, never
// panics, on malformed input; a bare filter, which has no aggregation behind
// it, is malformed here. On error s holds whatever was decoded before the
// fault.
func DecodeAggSpecInto(s *AggSpec, b []byte) error {
	r := binenc.NewReader(b)
	consumeFilter(r, &s.Filter)
	n := r.Count(1)
	s.GroupBy = slices.Grow(s.GroupBy[:0], n)[:n]
	for i := range s.GroupBy {
		s.GroupBy[i] = consumeCol(r)
	}
	// An aggregate is at least its function byte and a one-byte column.
	n = r.Count(2)
	s.Aggs = slices.Grow(s.Aggs[:0], n)[:n]
	for i := range s.Aggs {
		if s.Aggs[i].Fn = AggFunc(r.Byte()); s.Aggs[i].Fn > AggMax {
			r.Fail()
		}
		s.Aggs[i].Col = consumeCol(r)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("rowfilter: decode aggregation: %w", err)
	}
	return nil
}

// consumeCol reads a column offset, which must fit an int32.
func consumeCol(r *binenc.Reader) int {
	c := r.Uvarint()
	if c > math.MaxInt32 {
		r.Fail()
		return 0
	}
	return int(c)
}
