package sql

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/txn"
)

// Push-down (the paper's §8 future work): a full-table scan carries to the
// KV node what of its statement the node can evaluate, as a scanSpec in the
// Scan request's Filter bytes. The format is this package's own: kvserver
// and txn carry the bytes without reading them.
//
//   - A filter: the WHERE conjuncts `column OP constant` whose constants
//     evaluate become the spec's conditions, and the node returns only the
//     rows that pass them. The executor still applies the whole WHERE clause
//     to the rows it gets, so a filter only ever saves work.
//   - An aggregation: when the KV node can compute a SELECT's whole answer up
//     to the merge (aggPush), the spec also carries the group columns and the
//     aggregates, and the node returns one partial-aggregate row per group
//     instead of the rows. Nothing is applied again, so this is exact or not
//     pushed at all.
//
// Both are evaluated at the leaseholder by the one evaluator this package
// registers with kvserver (kvEvaluator), as the MVCC scan yields each row.
// The evaluator computes only what the statement reads: it decodes only the
// columns the spec names, and each aggregate keeps only the state its
// function's result needs. A condition holds there exactly when its
// comparison does in WHERE: both are cmpOp.holds, over the Datums WHERE
// evaluates and the Datums the row cursor decodes a row's columns into
// (scanFold).

func init() { kvserver.RegisterScanEvaluator(kvEvaluator{}) }

// scanSpec is what a Scan pushes down: the conditions a row must pass, and,
// for an aggregation, the columns to group the passing rows by and the
// aggregates to fold them into. A spec with neither is a filter.
type scanSpec struct {
	conds   []specCond
	groupBy []int
	// aggs are the aggregates each group's rows fold into. A partial row
	// carries each one's aggState, which tracks only what its function's
	// result reads (appendAggState).
	aggs []specAgg
}

// specAgg is one aggregate: fn of column col, or of every row when col is
// countRows.
type specAgg struct {
	col int
	fn  aggFn
}

// specCond is one condition: row[col] op val.
type specCond struct {
	col int
	op  cmpOp
	val Datum
}

// countRows is the column of COUNT(*), which counts rows and reads none.
const countRows = -1

// aggregating reports whether s asks for partial aggregates, not rows.
func (s *scanSpec) aggregating() bool { return len(s.groupBy) > 0 || len(s.aggs) > 0 }

// Encoded spec:
//
//	uvarint condition count, then per condition
//	  column    uvarint, at most 2^31-1
//	  operator  1 byte, a cmpOp
//	  constant  AppendDatum
//	uvarint group column count, then each column as a uvarint
//	uvarint aggregate count, then per aggregate
//	  column    plus one as a uvarint, 0 for COUNT(*)
//	  function  1 byte, an aggFn from aggCount to aggMax
//
// A filter's spec ends in two zero counts. minCondSize is a condition on
// column 0 with a NULL constant, and minAggSize an aggregate of COUNT(*):
// they bound the counts a spec can hold. The columns a KV node decodes are
// not sent: the fold derives them from the spec (scanFold.compile).
const (
	minCondSize = 3
	minAggSize  = 2
)

// encode serializes s for transport in a Scan request.
func (s *scanSpec) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(s.conds)))
	for _, c := range s.conds {
		b = binary.AppendUvarint(b, uint64(c.col))
		b = AppendDatum(append(b, byte(c.op)), c.val)
	}
	b = binary.AppendUvarint(b, uint64(len(s.groupBy)))
	for _, c := range s.groupBy {
		b = binary.AppendUvarint(b, uint64(c))
	}
	b = binary.AppendUvarint(b, uint64(len(s.aggs)))
	for _, a := range s.aggs {
		b = append(binary.AppendUvarint(b, uint64(a.col+1)), byte(a.fn))
	}
	return b
}

// decode parses a transported spec into s, reusing the capacity of its
// slices and a STRING constant equal to the one decoded into its place
// before, so a reader that keeps its spec decodes spec after spec without
// allocating (but for a new STRING constant's bytes). The bytes arrive inside a
// KV request, so malformed ones are an error, never a panic or an allocation
// their length does not pay for. On error s holds whatever was decoded
// before the fault.
func (s *scanSpec) decode(b []byte) error {
	r := binenc.NewReader(b)
	n := r.Count(minCondSize)
	s.conds = slices.Grow(s.conds[:0], n)[:n]
	for i := range s.conds {
		c := specCond{col: consumeCol(r, 0), op: cmpOp(r.Byte())}
		if c.op > opGe {
			r.Fail()
		}
		c.val = consumeDatum(r, s.conds[i].val)
		s.conds[i] = c
	}
	n = r.Count(1)
	s.groupBy = slices.Grow(s.groupBy[:0], n)[:n]
	for i := range s.groupBy {
		s.groupBy[i] = consumeCol(r, 0)
	}
	n = r.Count(minAggSize)
	s.aggs = slices.Grow(s.aggs[:0], n)[:n]
	for i := range s.aggs {
		a := specAgg{col: consumeCol(r, 1), fn: aggFn(r.Byte())}
		if a.fn < aggCount || a.fn > aggMax {
			r.Fail()
		}
		s.aggs[i] = a
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("sql: decoding scan spec: %w", err)
	}
	return nil
}

// consumeCol reads a column offset encoded plus bias, which must leave an
// offset that fits an int32.
func consumeCol(r *binenc.Reader, bias uint64) int {
	c := r.Uvarint()
	if c > math.MaxInt32+bias {
		r.Fail()
		return 0
	}
	return int(c) - int(bias)
}

// compileConds returns the conditions of a plan's conjuncts conds (its
// colConds) whose constants evaluate in args; all reports whether every one
// does. A comparison means the same wherever it is evaluated, so nothing
// else keeps a conjunct on the SQL side.
func compileConds(conds []colCond, args []Datum) (out []specCond, all bool) {
	all = true
	for _, c := range conds {
		d, ok := constantValue(c.val, args)
		if !ok {
			all = false
			continue
		}
		out = append(out, specCond{col: c.col, op: c.op, val: d})
	}
	return out, all
}

// compilePushdownFilter returns the encoded filter of the conjuncts of conds
// that compile, or nil when none does.
func compilePushdownFilter(conds []colCond, args []Datum) []byte {
	out, _ := compileConds(conds, args)
	if len(out) == 0 {
		return nil
	}
	return (&scanSpec{conds: out}).encode()
}

// aggPush is a SELECT's aggregation in the form the KV node computes it. A
// plan holds one when the statement's shape allows push-down (newAggPush);
// whether an execution pushes also depends on its constants, its plan and its
// transaction (Executor.aggSpec).
type aggPush struct {
	// groupBy lists the group columns, in GROUP BY order.
	groupBy []int
	// aggs are the aggregates the node folds (scanSpec.aggs), and exprs[j]
	// is the select expression aggs[j] computes.
	aggs  []specAgg
	exprs []int
	// spec is the encoded scanSpec when WHERE holds no placeholder, so every
	// execution pushes the same bytes; nil when each execution compiles its
	// own.
	spec []byte
}

// newAggPush returns the push-down of s, an aggregating single-table SELECT
// whose column bindings are cols and WHERE conjuncts `column OP constant`
// are where, or nil when the KV node cannot compute s exactly:
//
//   - every WHERE conjunct must be one of where, for nothing is applied to
//     the partial rows afterwards;
//   - every GROUP BY term is a column;
//   - every aggregate is COUNT(*) or COUNT, SUM, AVG, MIN or MAX of a column;
//   - every other select expression reads group columns only, since its
//     group's first row reaches the SQL node as those columns alone.
func newAggPush(s *Select, cols map[string]int, where []colCond) *aggPush {
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
			p.aggs = append(p.aggs, specAgg{col: countRows, fn: aggFnNamed(fe.Name)})
		default:
			c, ok := columnRef(fe.Arg, cols)
			if !ok {
				return nil
			}
			p.aggs = append(p.aggs, specAgg{col: c, fn: aggFnNamed(fe.Name)})
		}
		p.exprs = append(p.exprs, i)
	}
	for _, c := range where {
		if hasPlaceholder(c.val) {
			return p
		}
	}
	conds, all := compileConds(where, nil)
	if !all {
		return nil
	}
	p.spec = (&scanSpec{conds: conds, groupBy: p.groupBy, aggs: p.aggs}).encode()
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

// aggSpec returns the encoded scanSpec of pl's SELECT for this execution, or
// nil when it takes the row path: push-down is off, the statement's shape
// does not allow it, a point or index plan serves it, a constant does not
// evaluate, or t holds buffered writes in span, the table's span, which the
// transaction overlays on rows it reads and could not overlay on partials.
func (e *Executor) aggSpec(t *txn.Txn, pl *plan, span keys.Span, args []Datum) []byte {
	p := pl.push
	if p == nil || e.cfg.NoPushdown {
		return nil
	}
	if _, ok := extractPKConstraint(nil, pl.desc, pl.where, args); ok {
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
	conds, all := compileConds(pl.where, args)
	if !all {
		return nil
	}
	return (&scanSpec{conds: conds, groupBy: p.groupBy, aggs: p.aggs}).encode()
}

// Partial rows. The KV node answers an aggregating scanSpec with one row per group, in the
// order the groups first appear in the scan. The key is the group's key
// (appendGroupKey of each group column), and the value is
//
//	each group column's value in the group's first row   AppendDatum
//	per aggregate, its aggState:
//	  count  uvarint
//	  isInt  1 byte, 0 or 1
//	  sumI   zigzag varint
//	  sum    the IEEE 754 bits, 8 bytes big-endian
//	  min    AppendDatum; NULL unless the function is MIN
//	  max    AppendDatum; NULL unless the function is MAX
//
// seen is count > 0. The SQL node merges the states of a group's partial rows
// (aggState.merge), page after page and range after range, in key order.

// appendAggState appends a's partial-row encoding.
func appendAggState(b []byte, a *aggState) []byte {
	b = binary.AppendUvarint(b, uint64(a.count))
	b = binenc.AppendBool(b, a.isInt)
	b = binary.AppendVarint(b, a.sumI)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(a.sum))
	lo, hi := DNull, DNull
	switch {
	case !a.seen:
	case a.fn == aggMin:
		lo = a.min
	case a.fn == aggMax:
		hi = a.max
	}
	return AppendDatum(AppendDatum(b, lo), hi)
}

// consumeAggState reads one appendAggState encoding of a state of fn.
func consumeAggState(r *binenc.Reader, fn aggFn) aggState {
	n := r.Uvarint()
	if n > math.MaxInt64 {
		r.Fail()
	}
	a := aggState{fn: fn, count: int64(n), isInt: r.Bool(), sumI: r.Varint(), sum: math.Float64frombits(r.Uint64())}
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
	for _, a := range p.aggs {
		s = append(s, consumeAggState(r, a.fn))
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
	if err := f.spec.decode(spec); err != nil {
		f.reset()
		return nil, err
	}
	f.compile()
	return f, nil
}

// scanFold evaluates one scan's spec. Folds are pooled: once one has served
// a scan, a scan like it allocates nothing for its spec or its groups.
//
// Row decodes each column the spec reads once, into row[k] for column
// cols[k], and the conditions and aggregates, resolved to those positions
// by compile, read them there. A STRING's S views the row value, which is
// engine memory that does not change (mvcc.ScanFunc), so no STRING is
// copied: a group's values and an aggregate's MIN or MAX keep viewing the
// row they came from until Finish encodes them.
type scanFold struct {
	spec scanSpec // decoded into the slices it already holds
	// cols lists the columns the spec reads, ascending and each once.
	cols []int
	row  []Datum
	// have is how many of cols the row being evaluated has: row[k] is one
	// of its columns exactly when k < have. n is its column count.
	have, n int
	conds   []foldCond
	groupBy []int // the position in row of each group column
	aggs    []foldAgg
	key     []byte // the row's group key, when index finds groups
	// keys holds every group's key back to back, group i's ending at
	// ends[i], and vals its group values, at [i*len(groupBy):], their
	// STRINGs viewing the row that opened the group. A row's group is
	// found by comparing its values with each group's, or through index
	// by its key once there are more than linearGroups.
	keys  []byte
	ends  []int
	vals  []Datum
	index map[string]int
	// states holds group i's aggregate states at [i*len(aggs):].
	states []aggState
	out    []byte // a partial row's value
}

// foldCond is a specCond resolved to its column's position in the row.
type foldCond struct {
	k   int
	op  cmpOp
	val Datum
}

// foldAgg is a specAgg resolved to its column's position, k being countRows
// for COUNT(*). sums is whether its state sums the values (its function is
// neither MIN nor MAX).
type foldAgg struct {
	k    int
	fn   aggFn
	sums bool
}

// linearGroups is where a fold's group lookup moves to a map. A map after
// clear allocates each key it is given again: Q1's three groups cost it 3
// more allocations per query (BenchmarkScanAggregate, 49 → 52 allocs/op).
const linearGroups = 8

var foldPool sync.Pool

// compile sets f.cols to the columns f's spec reads (those of its
// conditions, its group columns and its aggregates) and resolves the
// conditions, group columns and aggregates to their positions in f.row.
func (f *scanFold) compile() {
	cols := f.cols[:0]
	for _, c := range f.spec.conds {
		cols = append(cols, c.col)
	}
	cols = append(cols, f.spec.groupBy...)
	for _, a := range f.spec.aggs {
		if a.col != countRows {
			cols = append(cols, a.col)
		}
	}
	slices.Sort(cols)
	f.cols = slices.Compact(cols)
	f.row = slices.Grow(f.row[:0], len(f.cols))[:len(f.cols)]
	posOf := func(col int) int {
		k, _ := slices.BinarySearch(f.cols, col)
		return k
	}
	for _, c := range f.spec.conds {
		f.conds = append(f.conds, foldCond{k: posOf(c.col), op: c.op, val: c.val})
	}
	for _, c := range f.spec.groupBy {
		f.groupBy = append(f.groupBy, posOf(c))
	}
	for _, a := range f.spec.aggs {
		k := countRows
		if a.col != countRows {
			k = posOf(a.col)
		}
		f.aggs = append(f.aggs, foldAgg{k: k, fn: a.fn, sums: a.fn != aggMin && a.fn != aggMax})
	}
}

// Row implements kvserver.ScanFold: a row passes when every condition holds,
// and a filter keeps it while an aggregation folds it. The value is decoded
// as decodeRowValue decodes it, and fails where that fails, but only the
// columns in f.cols are kept.
func (f *scanFold) Row(value []byte) (bool, error) {
	if !f.read(value) {
		return false, errMalformedRow
	}
	for i := range f.conds {
		c := &f.conds[i]
		if c.k >= f.have {
			return false, nil // the row has no such column
		}
		v := &f.row[c.k]
		// An INT column against an INT constant, the common case, needs
		// no call.
		if v.Kind == TypeInt && c.val.Kind == TypeInt {
			if !c.op.test(cmp.Compare(v.I, c.val.I)) {
				return false, nil
			}
		} else if !c.op.holds(*v, c.val) {
			return false, nil
		}
	}
	if !f.spec.aggregating() {
		return true, nil
	}
	return false, f.fold()
}

// read decodes the columns of row value b that f keeps into f.row,
// reporting false where decodeRowValue fails.
func (f *scanFold) read(b []byte) bool {
	b, n, ok := openRow(b)
	if !ok {
		return false
	}
	var skip Datum
	cols, row := f.cols, f.row
	k, want := 0, -1 // the next column to keep, and its position in row
	if len(cols) > 0 {
		want = cols[0]
	}
	for i := range n {
		d := &skip
		if i == want {
			d = &row[k]
			if k++; k < len(cols) {
				want = cols[k]
			}
		}
		if b, ok = readColumn(b, d); !ok {
			return false
		}
	}
	f.have, f.n = k, n
	return len(b) == 0
}

// fold adds the row in f.row, which passed the conditions, to its group.
func (f *scanFold) fold() error {
	for _, k := range f.groupBy {
		if k >= f.have {
			return fmt.Errorf("sql: group column %d of a %d-column row", f.cols[k], f.n)
		}
	}
	g, ok := f.lookup()
	if !ok {
		g = f.open()
	}
	na := len(f.aggs)
	states := f.states[g*na : (g+1)*na]
	for j, a := range f.aggs {
		switch {
		case a.k == countRows:
			states[j].countRow()
			continue
		case a.k >= f.have:
			return fmt.Errorf("sql: aggregate column %d of a %d-column row", f.cols[a.k], f.n)
		}
		v := &f.row[a.k]
		switch {
		case a.sums && v.Kind == TypeInt:
			states[j].addInt(v.I) // update's INT and FLOAT cases, inline
		case a.sums && v.Kind == TypeFloat:
			states[j].addFloat(v.F)
		default:
			states[j].update(*v)
		}
	}
	return nil
}

// lookup returns the group of the row in f.row: the group whose values
// its group columns equal, which is the group whose key it has
// (appendGroupKey), so through index the row's key is built.
func (f *scanFold) lookup() (int, bool) {
	if f.index != nil {
		f.key = f.appendKey(f.key[:0])
		g, ok := f.index[string(f.key)]
		return g, ok
	}
	ng := len(f.groupBy)
	for g := range f.ends {
		vals := f.vals[g*ng : (g+1)*ng]
		same := true
		for i, k := range f.groupBy {
			if !f.row[k].Equal(vals[i]) {
				same = false
				break
			}
		}
		if same {
			return g, true
		}
	}
	return 0, false
}

// appendKey appends the group key of the row in f.row.
func (f *scanFold) appendKey(b []byte) []byte {
	for _, k := range f.groupBy {
		b = appendGroupKey(b, f.row[k])
	}
	return b
}

// open opens the group of the row in f.row.
func (f *scanFold) open() int {
	g := len(f.ends)
	f.keys = f.appendKey(f.keys)
	f.ends = append(f.ends, len(f.keys))
	for _, k := range f.groupBy {
		f.vals = append(f.vals, f.row[k])
	}
	for _, a := range f.aggs {
		f.states = append(f.states, aggState{fn: a.fn, isInt: true})
	}
	switch {
	case f.index != nil:
		start := 0
		if g > 0 {
			start = f.ends[g-1]
		}
		f.index[string(f.keys[start:])] = g
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
	if page != nil && f.spec.aggregating() {
		ng, na := len(f.groupBy), len(f.aggs)
		start := 0
		for g, end := range f.ends {
			f.out = f.out[:0]
			for i := g * ng; i < (g+1)*ng; i++ {
				f.out = AppendDatum(f.out, f.vals[i])
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

// reset empties f, keeping its capacity, and returns it to the pool. It
// drops every reference into the rows f read, but keeps its spec's
// constants for the next decode (scanSpec.decode).
func (f *scanFold) reset() {
	clear(f.row)
	clear(f.conds)
	clear(f.vals)
	clear(f.states)
	*f = scanFold{
		spec: scanSpec{conds: f.spec.conds[:0], groupBy: f.spec.groupBy[:0], aggs: f.spec.aggs[:0]},
		cols: f.cols[:0], row: f.row[:0], conds: f.conds[:0], groupBy: f.groupBy[:0], aggs: f.aggs[:0],
		key: f.key[:0], keys: f.keys[:0], ends: f.ends[:0], vals: f.vals[:0],
		states: f.states[:0], out: f.out[:0],
	}
	foldPool.Put(f)
}
