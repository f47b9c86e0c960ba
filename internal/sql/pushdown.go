package sql

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/rowfilter"
	"crdbserverless/internal/txn"
)

// Push-down (the paper's §8 future work): a full-table scan carries to the
// KV node what of its statement the node can evaluate, in the Scan request's
// Filter bytes (rowfilter owns their format).
//
//   - A filter: the WHERE conjuncts `column OP constant` compile to a
//     rowfilter.Filter, and the node returns only the rows that pass it. The
//     executor still applies the whole WHERE clause to the rows it gets, so a
//     filter only ever saves work: a conjunct that does not compile is left to
//     the SQL side.
//   - An aggregation: when the KV node can compute a SELECT's whole answer up
//     to the merge (aggPush), the Scan carries a rowfilter.AggSpec and the
//     node returns one partial-aggregate row per group instead of the rows.
//     Nothing is applied again, so this is exact or not pushed at all.
//
// Both are evaluated at the leaseholder by the one evaluator this package
// registers with kvserver (kvEvaluator), as the MVCC scan yields each row.

func init() { kvserver.RegisterScanEvaluator(kvEvaluator{}) }

// datumRow adapts a decoded datum row to the filter evaluator.
type datumRow []Datum

// Column implements rowfilter.RowAccessor.
func (r *datumRow) Column(i int) (rowfilter.Value, bool) {
	if i < 0 || i >= len(*r) {
		return rowfilter.Value{}, false
	}
	return datumToFilterValue((*r)[i])
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

// isNumber reports whether t is INT or FLOAT.
func isNumber(t ColumnType) bool { return t == TypeInt || t == TypeFloat }

// compileFilter compiles the conjuncts conds of desc (a plan's colConds) into
// a filter. A conjunct compiles when its constant evaluates in args to a
// non-NULL value of a kind rowfilter compares with the column's type as
// Datum.Compare does: a number with a number, anything else with its own
// kind only. all reports whether every conjunct compiled.
func compileFilter(desc *TableDescriptor, conds []colCond, args []Datum) (f rowfilter.Filter, all bool) {
	all = true
	for _, c := range conds {
		d, ok := constantValue(c.val, args)
		typ := desc.Columns[c.col].Type
		if !ok || d.Null || (d.Kind != typ && !(isNumber(d.Kind) && isNumber(typ))) {
			all = false
			continue
		}
		v, _ := datumToFilterValue(d)
		f.Conds = append(f.Conds, rowfilter.Cond{Col: c.col, Op: c.op, Value: v})
	}
	return f, all
}

// compilePushdownFilter returns the encoded filter of the conjuncts of conds
// that compile, or nil when none does.
func compilePushdownFilter(desc *TableDescriptor, conds []colCond, args []Datum) []byte {
	f, _ := compileFilter(desc, conds, args)
	if f.Empty() {
		return nil
	}
	return f.Encode()
}

// aggPush is a SELECT's aggregation in the form the KV node computes it. A
// plan holds one when the statement's shape allows push-down (newAggPush);
// whether an execution pushes also depends on its constants, its plan and its
// transaction (Executor.aggSpec).
type aggPush struct {
	// groupBy lists the group columns, in GROUP BY order.
	groupBy []int
	// aggs are the aggregates the node folds, and exprs[j] is the select
	// expression aggs[j] computes.
	aggs  []rowfilter.Agg
	exprs []int
	// spec is the encoded AggSpec when WHERE holds no placeholder, so every
	// execution pushes the same bytes; nil when each execution compiles its
	// own.
	spec []byte
}

var aggFuncs = map[string]rowfilter.AggFunc{
	"COUNT": rowfilter.AggCount, "SUM": rowfilter.AggSum, "AVG": rowfilter.AggAvg,
	"MIN": rowfilter.AggMin, "MAX": rowfilter.AggMax,
}

// newAggPush returns the push-down of s, an aggregating single-table SELECT
// over desc whose column bindings are cols and WHERE conjuncts `column OP
// constant` are where, or nil when the KV node cannot compute s exactly:
//
//   - every WHERE conjunct must be one of where, for nothing is applied to
//     the partial rows afterwards;
//   - every GROUP BY term is a column;
//   - every aggregate is COUNT(*) or COUNT, SUM, AVG, MIN or MAX of a column,
//     except MIN and MAX of a FLOAT column: Datum.Compare orders no NaN, so a
//     minimum taken in parts can differ from one taken in one pass;
//   - every other select expression reads group columns only, since its
//     group's first row reaches the SQL node as those columns alone.
func newAggPush(s *Select, desc *TableDescriptor, cols map[string]int, where []colCond) *aggPush {
	if len(conjuncts(s.Where)) != len(where) {
		return nil
	}
	p := &aggPush{}
	grouped := make(map[int]bool, len(s.GroupBy))
	for _, ge := range s.GroupBy {
		c, ok := columnRef(ge, cols)
		if !ok {
			return nil
		}
		p.groupBy = append(p.groupBy, c)
		grouped[c] = true
	}
	for i, se := range s.Exprs {
		fe, ok := se.Expr.(*FuncExpr)
		switch {
		case se.Star:
			return nil
		case !ok:
			if !readsOnly(se.Expr, cols, grouped) {
				return nil
			}
			continue
		case fe.Star:
			p.aggs = append(p.aggs, rowfilter.Agg{Fn: rowfilter.AggCountRows})
		default:
			c, ok := columnRef(fe.Arg, cols)
			fn := aggFuncs[fe.Name]
			if !ok || ((fn == rowfilter.AggMin || fn == rowfilter.AggMax) && desc.Columns[c].Type == TypeFloat) {
				return nil
			}
			p.aggs = append(p.aggs, rowfilter.Agg{Fn: fn, Col: c})
		}
		p.exprs = append(p.exprs, i)
	}
	for _, c := range where {
		if hasPlaceholder(c.val) {
			return p
		}
	}
	f, all := compileFilter(desc, where, nil)
	if !all {
		return nil
	}
	p.spec = (&rowfilter.AggSpec{Filter: f, GroupBy: p.groupBy, Aggs: p.aggs}).Encode()
	return p
}

// columnRef returns the row position of the column e names, if e is a
// column reference.
func columnRef(e Expr, cols map[string]int) (int, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return 0, false
	}
	name := ref.Column
	if ref.Table != "" {
		name = ref.Table + "." + ref.Column
	}
	c, ok := cols[name]
	return c, ok
}

// readsOnly reports whether e calls no aggregate and reads no column but
// those in allowed.
func readsOnly(e Expr, cols map[string]int, allowed map[int]bool) bool {
	switch x := e.(type) {
	case *ColumnRef:
		c, ok := columnRef(x, cols)
		return ok && allowed[c]
	case *FuncExpr:
		return false
	case *BinaryExpr:
		return readsOnly(x.Left, cols, allowed) && readsOnly(x.Right, cols, allowed)
	case *UnaryExpr:
		return readsOnly(x.Operand, cols, allowed)
	default:
		return true
	}
}

// hasPlaceholder reports whether e reads a placeholder.
func hasPlaceholder(e Expr) bool {
	switch x := e.(type) {
	case *Placeholder:
		return true
	case *BinaryExpr:
		return hasPlaceholder(x.Left) || hasPlaceholder(x.Right)
	case *UnaryExpr:
		return hasPlaceholder(x.Operand)
	default:
		return false
	}
}

// aggSpec returns the encoded AggSpec of pl's SELECT for this execution, or
// nil when it takes the row path: push-down is off, the statement's shape
// does not allow it, a point or index plan serves it, a constant does not
// compile, or t holds buffered writes in span, the table's span, which the
// transaction overlays on rows it reads and could not overlay on partials.
func (e *Executor) aggSpec(t *txn.Txn, pl *plan, span keys.Span, args []Datum) []byte {
	p := pl.push
	if p == nil || e.cfg.NoPushdown {
		return nil
	}
	if _, ok := extractPKConstraint(pl.desc, pl.where, args); ok {
		return nil
	}
	if _, _, ok := extractIndexConstraint(pl.desc, pl.where, args); ok {
		return nil
	}
	if t.BuffersWritesIn(span) {
		return nil
	}
	if p.spec != nil {
		return p.spec
	}
	f, all := compileFilter(pl.desc, pl.where, args)
	if !all {
		return nil
	}
	return (&rowfilter.AggSpec{Filter: f, GroupBy: p.groupBy, Aggs: p.aggs}).Encode()
}

// Partial rows. The KV node answers an AggSpec with one row per group, in the
// order the groups first appear in the scan. The key is the group's key
// (appendGroupKey of each group column), and the value is
//
//	each group column's value in the group's first row   AppendDatum
//	per aggregate, its aggState:
//	  count  uvarint
//	  isInt  1 byte, 0 or 1
//	  sumI   zigzag varint
//	  sum    the IEEE 754 bits, 8 bytes big-endian
//	  min    AppendDatum
//	  max    AppendDatum
//
// seen is count > 0. The SQL node merges the states of a group's partial rows
// (aggState.merge), page after page and range after range, in key order.

// appendAggState appends a's partial-row encoding.
func appendAggState(b []byte, a *aggState) []byte {
	b = binary.AppendUvarint(b, uint64(a.count))
	b = binenc.AppendBool(b, a.isInt)
	b = binary.AppendVarint(b, a.sumI)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(a.sum))
	b = AppendDatum(b, a.min)
	return AppendDatum(b, a.max)
}

// consumeAggState reads one appendAggState encoding.
func consumeAggState(r *binenc.Reader) aggState {
	n := r.Uvarint()
	if n > math.MaxInt64 {
		r.Fail()
	}
	a := aggState{count: int64(n), isInt: r.Bool(), sumI: r.Varint(), sum: math.Float64frombits(r.Uint64())}
	a.min, a.max, a.seen = ConsumeDatum(r), ConsumeDatum(r), a.count > 0
	return a
}

// decodePartial decodes a partial row's value as pushed for p, appending the
// group values to vals and an aggregate state per pushed aggregate to states.
// The value comes from the KV layer, so it is decoded as untrusted bytes: a
// malformed one is an error, and on error vals and states are returned as
// they were.
func decodePartial(p *aggPush, value []byte, vals []Datum, states []aggState) ([]Datum, []aggState, error) {
	r := binenc.NewReader(value)
	v, s := vals, states
	for range p.groupBy {
		v = append(v, ConsumeDatum(r))
	}
	for range p.aggs {
		s = append(s, consumeAggState(r))
	}
	if err := r.Done(); err != nil {
		return vals, states, fmt.Errorf("sql: decoding partial aggregate: %w", err)
	}
	return v, s, nil
}

// scanPartials reads the partial rows of pl's pushed aggregation over span
// and merges each into agg.
func (e *Executor) scanPartials(ctx context.Context, t *txn.Txn, pl *plan, span keys.Span, spec []byte, agg *aggregator) error {
	partials := 0
	err := e.scanPages(ctx, t, span, spec, func(kvs []kvpb.KeyValue) error {
		for _, kv := range kvs {
			if err := agg.addPartial(pl, kv.Value); err != nil {
				return err
			}
		}
		partials += len(kvs)
		return nil
	})
	if err != nil {
		return err
	}
	e.chargeRows(partials)
	return nil
}

// The KV side.

// kvEvaluator is the kvserver.ScanEvaluator of this package's specs.
type kvEvaluator struct{}

// Begin implements kvserver.ScanEvaluator.
func (kvEvaluator) Begin(spec []byte) (kvserver.ScanFold, error) {
	f, _ := foldPool.Get().(*scanFold)
	if f == nil {
		f = new(scanFold)
	}
	if err := f.decode(spec); err != nil {
		f.reset()
		return nil, err
	}
	return f, nil
}

var errBadSpec = errors.New("sql: scan spec is neither a filter nor an aggregation")

// decode decodes spec into f.spec, reusing its slices: a spec is an AggSpec,
// or else a bare filter.
func (f *scanFold) decode(spec []byte) error {
	f.aggregating = rowfilter.DecodeAggSpecInto(&f.spec, spec) == nil
	if f.aggregating || rowfilter.DecodeInto(&f.spec.Filter, spec) == nil {
		return nil
	}
	return errBadSpec
}

// scanFold evaluates one scan's spec. Folds are pooled: once one has served
// a scan, a scan like it allocates nothing for its spec or its groups.
type scanFold struct {
	// spec is the decoded spec: an AggSpec when aggregating, else only its
	// Filter holds the bare filter.
	spec        rowfilter.AggSpec
	aggregating bool
	row         datumRow // the row being evaluated
	key         []byte   // its group key
	// keys holds every group's key back to back, group i's ending at
	// ends[i]. Groups are found by a linear search over them, or through
	// index once there are more than linearGroups.
	keys  []byte
	ends  []int
	index map[string]int
	// vals and states hold group i's group values and aggregate states at
	// [i*len(GroupBy):] and [i*len(Aggs):].
	vals   []Datum
	states []aggState
	out    []byte // a partial row's value
}

// linearGroups is where a fold's group lookup moves to a map. A map after
// clear allocates each key it is given again: Q1's three groups cost it 3
// more allocations per query (BenchmarkScanAggregate, 49 → 52 allocs/op).
const linearGroups = 8

var foldPool sync.Pool

// Row implements kvserver.ScanFold.
func (f *scanFold) Row(value []byte) (bool, error) {
	row, err := decodeRowValue(f.row[:0], value)
	if err != nil {
		if f.aggregating {
			return false, err
		}
		// The SQL node decodes a row it is sent again, and fails there.
		return true, nil
	}
	f.row = row
	if !f.spec.Filter.Matches(&f.row) {
		return false, nil
	}
	if !f.aggregating {
		return true, nil
	}
	return false, f.fold(row)
}

// fold adds a row that passed the filter to its group.
func (f *scanFold) fold(row []Datum) error {
	f.key = f.key[:0]
	for _, c := range f.spec.GroupBy {
		if c >= len(row) {
			return fmt.Errorf("sql: group column %d of a %d-column row", c, len(row))
		}
		f.key = appendGroupKey(f.key, row[c])
	}
	g, ok := f.lookup(f.key)
	if !ok {
		g = f.open(row)
	}
	na := len(f.spec.Aggs)
	states := f.states[g*na : (g+1)*na]
	for j, a := range f.spec.Aggs {
		if a.Fn == rowfilter.AggCountRows {
			states[j].countRow()
			continue
		}
		if a.Col >= len(row) {
			return fmt.Errorf("sql: aggregate column %d of a %d-column row", a.Col, len(row))
		}
		states[j].update(row[a.Col])
	}
	return nil
}

// lookup returns the group whose key is key.
func (f *scanFold) lookup(key []byte) (int, bool) {
	if f.index != nil {
		g, ok := f.index[string(key)]
		return g, ok
	}
	start := 0
	for g, end := range f.ends {
		if string(f.keys[start:end]) == string(key) {
			return g, true
		}
		start = end
	}
	return 0, false
}

// open opens the group of row, whose key is f.key.
func (f *scanFold) open(row []Datum) int {
	g := len(f.ends)
	f.keys = append(f.keys, f.key...)
	f.ends = append(f.ends, len(f.keys))
	for _, c := range f.spec.GroupBy {
		f.vals = append(f.vals, row[c])
	}
	for range f.spec.Aggs {
		f.states = append(f.states, aggState{isInt: true})
	}
	switch {
	case f.index != nil:
		f.index[string(f.key)] = g
	case len(f.ends) > linearGroups:
		f.index = make(map[string]int, 2*len(f.ends))
		start := 0
		for i, end := range f.ends {
			f.index[string(f.keys[start:end])] = i
			start = end
		}
	}
	return g
}

// Finish implements kvserver.ScanFold: it appends a partial row per group,
// in the order the groups opened, and returns f to the pool.
func (f *scanFold) Finish(page *kvpb.Page) error {
	if page != nil && f.aggregating {
		ng, na := len(f.spec.GroupBy), len(f.spec.Aggs)
		start := 0
		for g, end := range f.ends {
			f.out = f.out[:0]
			for _, d := range f.vals[g*ng : (g+1)*ng] {
				f.out = AppendDatum(f.out, d)
			}
			for j := g * na; j < (g+1)*na; j++ {
				f.out = appendAggState(f.out, &f.states[j])
			}
			page.AppendOwned(f.keys[start:end], f.out)
			start = end
		}
	}
	f.reset()
	return nil
}

// reset empties f, keeping its capacity, and returns it to the pool.
func (f *scanFold) reset() {
	clear(f.spec.Filter.Conds)
	clear(f.row)
	clear(f.vals)
	clear(f.states)
	*f = scanFold{
		spec: rowfilter.AggSpec{
			Filter:  rowfilter.Filter{Conds: f.spec.Filter.Conds[:0]},
			GroupBy: f.spec.GroupBy[:0], Aggs: f.spec.Aggs[:0],
		},
		row: f.row[:0], key: f.key[:0], keys: f.keys[:0], ends: f.ends[:0],
		vals: f.vals[:0], states: f.states[:0], out: f.out[:0],
	}
	foldPool.Put(f)
}
