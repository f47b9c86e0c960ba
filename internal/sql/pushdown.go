package sql

import (
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/rowfilter"
)

// Row-filter push-down (the paper's §8 future work): full-table-scan plans
// compile the WHERE clause's eligible conjuncts — single-column comparisons
// against constants — into a rowfilter.Filter carried in the Scan request,
// so the KV node drops non-matching rows before they cross the process
// boundary. The executor still re-applies the complete WHERE clause to the
// surviving rows, so push-down is purely an optimization: disabling it (or a
// KV node ignoring it) changes no results.

// KVRowDecoder returns the row codec the KV layer uses to evaluate pushed-
// down filters. Register it with kvserver.Cluster.SetRowDecoder.
func KVRowDecoder() kvserver.RowDecoder {
	return func(value []byte) (rowfilter.RowAccessor, error) {
		row, err := decodeRowValue(nil, value)
		if err != nil {
			return nil, err
		}
		return datumRowAccessor(row), nil
	}
}

// datumRowAccessor adapts a decoded datum row to the filter evaluator.
type datumRowAccessor []Datum

// Column implements rowfilter.RowAccessor.
func (r datumRowAccessor) Column(i int) (rowfilter.Value, bool) {
	if i < 0 || i >= len(r) {
		return rowfilter.Value{}, false
	}
	v, ok := datumToFilterValue(r[i])
	if !ok {
		return rowfilter.Value{}, false
	}
	return v, true
}

// datumToFilterValue converts a datum to the filter value model.
func datumToFilterValue(d Datum) (rowfilter.Value, bool) {
	if d.Null {
		return rowfilter.Value{Null: true}, true
	}
	switch d.Kind {
	case TypeInt:
		return rowfilter.Value{Kind: rowfilter.KindInt, I: d.I}, true
	case TypeFloat:
		return rowfilter.Value{Kind: rowfilter.KindFloat, F: d.F}, true
	case TypeString:
		return rowfilter.Value{Kind: rowfilter.KindString, S: d.S}, true
	case TypeBool:
		return rowfilter.Value{Kind: rowfilter.KindBool, B: d.B}, true
	default:
		return rowfilter.Value{}, false
	}
}

var pushdownOps = map[string]rowfilter.Op{
	"=": rowfilter.OpEq, "!=": rowfilter.OpNe,
	"<": rowfilter.OpLt, "<=": rowfilter.OpLe,
	">": rowfilter.OpGt, ">=": rowfilter.OpGe,
}

var flippedOps = map[rowfilter.Op]rowfilter.Op{
	rowfilter.OpEq: rowfilter.OpEq, rowfilter.OpNe: rowfilter.OpNe,
	rowfilter.OpLt: rowfilter.OpGt, rowfilter.OpLe: rowfilter.OpGe,
	rowfilter.OpGt: rowfilter.OpLt, rowfilter.OpGe: rowfilter.OpLe,
}

// compilePushdownFilter compiles the WHERE conjuncts conds (a plan's
// colConds) whose constants evaluate to a non-NULL value into a filter. It
// returns the encoded filter, or nil when nothing is eligible. Ineligible
// conjuncts are simply left for the SQL-side filter; eligible ones are also
// re-checked there (fail-open contract).
func compilePushdownFilter(conds []colCond, args []Datum) []byte {
	var f rowfilter.Filter
	for _, c := range conds {
		d, ok := constantValue(c.val, args)
		if !ok {
			continue
		}
		v, ok := datumToFilterValue(d)
		if !ok || v.Null {
			continue
		}
		f.Conds = append(f.Conds, rowfilter.Cond{Col: c.col, Op: c.op, Value: v})
	}
	if f.Empty() {
		return nil
	}
	enc, err := f.Encode()
	if err != nil {
		return nil // fail open: the SQL-side filter still applies
	}
	return enc
}
