package sql

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/txn"
)

// newPushdownDB builds a DB that pushes work down to KV, or does not.
func newPushdownDB(t *testing.T, pushdown bool) (*kvserver.Cluster, *Executor, *Session) {
	t.Helper()
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID: kvserver.NodeID(i), VCPUs: 2, Cost: cheap,
		}))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	coord := txn.NewCoordinator(ds, c.Clock(), 2)
	catalog := NewCatalog(coord, 2)
	exec := NewExecutor(catalog, coord, ExecutorConfig{NoPushdown: !pushdown})
	return c, exec, NewSession(exec, "app")
}

func loadFilterTable(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT, c STRING)")
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'g%d')", i, i*10, i%3))
	}
}

func TestPushdownSameResultsAsSQLFilter(t *testing.T) {
	queries := []string{
		"SELECT a FROM t WHERE b > 100 AND b <= 300 ORDER BY a",
		"SELECT a FROM t WHERE c = 'g1' ORDER BY a",
		"SELECT a FROM t WHERE b >= 200 AND c != 'g0' ORDER BY a",
		"SELECT COUNT(*) FROM t WHERE b < 250",
		// Mixed: one pushable conjunct, one not (arithmetic on the column).
		"SELECT a FROM t WHERE b > 100 AND a + 1 < 20 ORDER BY a",
		// Constant on the left (flipped operator).
		"SELECT a FROM t WHERE 100 < b ORDER BY a LIMIT 5",
		// A constant of another kind than its column: the KV node orders the
		// two as WHERE does, with Datum.Compare, so the conjunct is pushed.
		"SELECT a FROM t WHERE c != 5 AND b < 100 ORDER BY a",
		"SELECT COUNT(*) FROM t WHERE c > 1",
		"SELECT COUNT(*) FROM t WHERE c = 5",
		"SELECT COUNT(*) FROM t WHERE 5 = c",
		"SELECT COUNT(*) FROM t WHERE b < 'x' AND 5 < c",
		// A NULL constant: no row passes, on either side.
		"SELECT COUNT(*) FROM t WHERE b = NULL",
		"SELECT a FROM t WHERE NULL != c ORDER BY a",
	}
	_, _, plain := newPushdownDB(t, false)
	_, _, pushed := newPushdownDB(t, true)
	loadFilterTable(t, plain, 40)
	loadFilterTable(t, pushed, 40)
	for _, q := range queries {
		a := rowStrings(mustExec(t, plain, q))
		b := rowStrings(mustExec(t, pushed, q))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: plain=%v pushed=%v", q, a, b)
		}
	}
}

func TestPushdownReducesReturnedBytes(t *testing.T) {
	// A selective filter on a full scan should shrink the bytes that cross
	// the SQL/KV boundary (the whole point of §8's proposal).
	cluster, execPlain, plain := newPushdownDB(t, false)
	_, execPushed, pushed := newPushdownDB(t, true)
	_ = cluster
	loadFilterTable(t, plain, 200)
	loadFilterTable(t, pushed, 200)

	q := "SELECT a FROM t WHERE b = 500" // matches exactly one of 200 rows
	plainBefore := execPlain.rowsProcessed()
	mustExec(t, plain, q)
	plainRows := execPlain.rowsProcessed() - plainBefore

	pushedBefore := execPushed.rowsProcessed()
	mustExec(t, pushed, q)
	pushedRows := execPushed.rowsProcessed() - pushedBefore

	if pushedRows >= plainRows {
		t.Fatalf("pushdown processed %d rows vs %d without — no reduction", pushedRows, plainRows)
	}
	if pushedRows > 5 {
		t.Fatalf("pushdown returned %d rows for a 1-row predicate", pushedRows)
	}
}

func TestPushdownWithoutDecoderFailsClosed(t *testing.T) {
	// A cluster without a registered evaluator fails every pushed scan, a
	// filter's as an aggregation's: kvserver cannot tell the two apart, and
	// rows taken for partials would be wrong answers. Only the SQL layer
	// builds specs, and it registers its evaluator when it is initialized,
	// so no product binary meets such a cluster.
	kvserver.RegisterScanEvaluator(nil)
	t.Cleanup(func() { kvserver.RegisterScanEvaluator(kvEvaluator{}) })
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	n1 := kvserver.NewNode(kvserver.NodeConfig{ID: 1, VCPUs: 2, Cost: cheap})
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{}, []*kvserver.Node{n1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	coord := txn.NewCoordinator(ds, c.Clock(), 2)
	exec := NewExecutor(NewCatalog(coord, 2), coord, ExecutorConfig{})
	s := NewSession(exec, "app")
	loadFilterTable(t, s, 20)
	for _, q := range []string{"SELECT a FROM t WHERE b >= 100", "SELECT COUNT(*) FROM t WHERE b >= 100"} {
		if res, err := s.Execute(context.Background(), q); err == nil {
			t.Fatalf("%s returned %d rows on a node with no evaluator, want an error", q, len(res.Rows))
		} else if !strings.Contains(err.Error(), "no evaluator") {
			t.Fatalf("%s on a node with no evaluator: %v", q, err)
		}
	}
}

// compileWhere returns the decoded filter q's WHERE clause compiles to over
// desc, with args for its placeholders; ok is false when none compiles.
func compileWhere(t *testing.T, desc *TableDescriptor, q string, args ...Datum) (spec scanSpec, ok bool) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	enc := compilePushdownFilter(colConds(desc, "", stmt.(*Select).Where), args)
	if enc == nil {
		return scanSpec{}, false
	}
	if err := spec.decode(enc); err != nil {
		t.Fatal(err)
	}
	return spec, true
}

func TestCompilePushdownFilter(t *testing.T) {
	desc := &TableDescriptor{
		Name:    "t",
		Columns: []ColumnDef{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeString}},
	}
	// Eligible: a > 5 AND b = 'x'.
	if f, ok := compileWhere(t, desc, "SELECT a FROM t WHERE a > 5 AND b = 'x'"); !ok || len(f.conds) != 2 || f.aggregating() {
		t.Fatalf("filter = %+v", f)
	}
	// Ineligible: OR at the top, function calls, column-to-column, a
	// constant that does not evaluate.
	for _, q := range []string{
		"SELECT a FROM t WHERE a > 5 OR b = 'x'",
		"SELECT a FROM t WHERE a + 1 > 5",
		"SELECT a FROM t WHERE a = a",
		"SELECT a FROM t WHERE a = 1 / 0",
		"SELECT a FROM t WHERE a = $2",
	} {
		if f, ok := compileWhere(t, desc, q, DInt(1)); ok {
			t.Fatalf("%s compiled the filter %+v", q, f)
		}
	}
	// Placeholders are constants.
	f, _ := compileWhere(t, desc, "SELECT a FROM t WHERE a <= $1", DInt(9))
	if want := []specCond{{col: 0, op: opLe, val: DInt(9)}}; !reflect.DeepEqual(f.conds, want) {
		t.Fatalf("placeholder filter = %+v", f)
	}
	// Flipped constant-on-left comparisons.
	f, _ = compileWhere(t, desc, "SELECT a FROM t WHERE 5 < a")
	if want := []specCond{{col: 0, op: opGt, val: DInt(5)}}; !reflect.DeepEqual(f.conds, want) {
		t.Fatalf("flipped filter = %+v", f)
	}
	// Every constant that evaluates compiles: of another kind than its
	// column, or NULL. The KV node compares as WHERE does.
	f, _ = compileWhere(t, desc, "SELECT a FROM t WHERE a > 5 AND b != 7 AND a < 'x' AND NULL = b")
	want := []specCond{
		{col: 0, op: opGt, val: DInt(5)}, {col: 1, op: opNe, val: DInt(7)},
		{col: 0, op: opLt, val: DString("x")}, {col: 1, op: opEq, val: DNull},
	}
	if !reflect.DeepEqual(f.conds, want) {
		t.Fatalf("mixed-kind filter = %+v", f)
	}
}

// holds is the one comparison of WHERE and of the KV node's conditions:
// numbers across INT and FLOAT by value, and the kinds that do not compare
// ordered by kind, the same whichever side each is on.
func TestCmpOpHolds(t *testing.T) {
	nan := DFloat(math.NaN())
	for _, c := range []struct {
		l    Datum
		op   cmpOp
		r    Datum
		want bool
	}{
		{DInt(5), opEq, DInt(5), true},
		{DInt(5), opEq, DInt(6), false},
		{DInt(5), opNe, DInt(6), true},
		{DInt(5), opLt, DInt(6), true},
		{DInt(5), opLe, DInt(5), true},
		{DInt(5), opGt, DInt(5), false},
		{DInt(5), opGe, DInt(5), true},
		{DString("m"), opLt, DString("z"), true},
		{DString("m"), opGt, DString("z"), false},
		{DBool(true), opEq, DBool(true), true},
		{DBool(true), opGt, DBool(false), true},
		{DFloat(2.5), opEq, DFloat(2.5), true},
		{DInt(5), opLt, DFloat(5.5), true},
		{DFloat(2.5), opGt, DInt(2), true},
		{DInt(1<<53 + 1), opGt, DFloat(1 << 53), true},
		{DInt(1<<53 + 1), opNe, DInt(1 << 53), true},
		{DFloat(math.Copysign(0, -1)), opEq, DInt(0), true},
		{nan, opEq, nan, true},
		{nan, opLt, DFloat(math.Inf(-1)), true},
		{nan, opLt, DInt(math.MinInt64), true},
		{DFloat(1), opEq, nan, false},
		{DFloat(math.Inf(1)), opGt, DInt(math.MaxInt64), true},
		{DInt(5), opEq, DString("5"), false},
		{DString("5"), opEq, DInt(5), false},
		{DInt(5), opLt, DString("a"), true},
		{DString("a"), opGt, DInt(5), true},
		{DString("a"), opLt, DBool(false), true},
	} {
		if got := c.op.holds(c.l, c.r); got != c.want {
			t.Errorf("%+v %d %+v: got %v, want %v", c.l, c.op, c.r, got, c.want)
		}
		if got := c.op.flip().holds(c.r, c.l); got != c.want {
			t.Errorf("%+v %d %+v flipped: got %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
	if _, ok := cmpOpOf("+"); ok {
		t.Fatal("+ is a comparison")
	}
}

// No comparison with a NULL side holds, under any operator: not in WHERE,
// and not at the KV node, for a NULL column or a NULL constant.
func TestCmpOpHoldsNeverOnNull(t *testing.T) {
	for op := opEq; op <= opGe; op++ {
		for _, d := range []Datum{DNull, DInt(1), DFloat(math.NaN()), DString("a"), DBool(false)} {
			if op.holds(DNull, d) || op.holds(d, DNull) {
				t.Errorf("NULL %d %+v holds one way round", op, d)
			}
		}
		if keeps(t, &scanSpec{conds: []specCond{{col: 0, op: op, val: DInt(1)}}}, DNull) {
			t.Errorf("a NULL column passed %d 1", op)
		}
		if keeps(t, &scanSpec{conds: []specCond{{col: 0, op: op, val: DNull}}}, DInt(1)) {
			t.Errorf("1 passed %d NULL", op)
		}
	}
}

// On INTs, a condition is Go's comparison, in WHERE and at the KV node.
func TestCmpOpHoldsMatchesGoComparison(t *testing.T) {
	prop := func(l, r int64, sel uint8) bool {
		op := cmpOp(sel % 6)
		want := map[cmpOp]bool{opEq: l == r, opNe: l != r, opLt: l < r, opLe: l <= r, opGt: l > r, opGe: l >= r}[op]
		return op.holds(DInt(l), DInt(r)) == want &&
			keeps(t, &scanSpec{conds: []specCond{{col: 0, op: op, val: DInt(r)}}}, DInt(l)) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// keeps runs one row through the KV node's fold of a filter spec, which
// answers per row and finishes with no rows of its own.
func keeps(t *testing.T, spec *scanSpec, row ...Datum) bool {
	t.Helper()
	fold, err := kvEvaluator{}.Begin(spec.encode())
	if err != nil {
		t.Fatal(err)
	}
	keep, err := fold.Row(encodeRowValue(row))
	if err != nil {
		t.Fatal(err)
	}
	var page kvpb.Page
	if err := fold.Finish(&page); err != nil || len(page.Rows) != 0 {
		t.Fatalf("%+v: a filter finished with %d rows, %v", spec, len(page.Rows), err)
	}
	return keep
}

// A spec with no conditions is the filter of a scan with no WHERE: the KV
// node keeps every row it can decode, and fails on one it cannot.
func TestScanFoldEmptySpecKeepsAll(t *testing.T) {
	empty := &scanSpec{}
	if empty.aggregating() {
		t.Fatal("the empty spec aggregates")
	}
	for _, row := range [][]Datum{{}, {DNull}, {DInt(15), DString("m"), DFloat(math.NaN()), DBool(false)}} {
		if !keeps(t, empty, row...) {
			t.Errorf("the empty spec dropped %+v", row)
		}
	}
	fold, err := kvEvaluator{}.Begin(empty.encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fold.Row([]byte{0x05}); err == nil {
		t.Error("an undecodable row passed")
	}
	if err := fold.Finish(&kvpb.Page{}); err != nil {
		t.Fatal(err)
	}
}

// A row passes the KV node's filter only when every condition holds.
func TestScanFoldConjunction(t *testing.T) {
	rng := &scanSpec{conds: []specCond{{col: 0, op: opGe, val: DInt(10)}, {col: 0, op: opLt, val: DInt(20)}}}
	for v, want := range map[int64]bool{5: false, 9: false, 10: true, 15: true, 19: true, 20: false} {
		if got := keeps(t, rng, DInt(v)); got != want {
			t.Errorf("10 <= %d < 20: kept %v", v, got)
		}
	}
	two := &scanSpec{conds: []specCond{{col: 0, op: opGe, val: DInt(10)}, {col: 1, op: opEq, val: DString("m")}}}
	for _, c := range []struct {
		row  []Datum
		want bool
	}{
		{[]Datum{DInt(15), DString("m")}, true},
		{[]Datum{DInt(15), DString("n")}, false},
		{[]Datum{DInt(5), DString("m")}, false},
		{[]Datum{DInt(15), DNull}, false},
	} {
		if got := keeps(t, two, c.row...); got != c.want {
			t.Errorf("%+v: kept %v", c.row, got)
		}
	}
}

// At the KV node as in WHERE, kinds that do not compare are ordered by kind;
// a condition on a column the row does not have keeps nothing, and bytes
// that are not a spec begin no fold.
func TestScanFoldMixedKindsAndBounds(t *testing.T) {
	row := []Datum{DInt(1), DString("m")}
	for _, c := range []struct {
		cond specCond
		keep bool
	}{
		{specCond{col: 0, op: opEq, val: DString("x")}, false},
		{specCond{col: 0, op: opNe, val: DString("x")}, true},
		{specCond{col: 0, op: opLt, val: DString("x")}, true},
		{specCond{col: 1, op: opGt, val: DInt(15)}, true},
		{specCond{col: 1, op: opEq, val: DBool(false)}, false},
		{specCond{col: 1, op: opLt, val: DBool(false)}, true},
		{specCond{col: 9, op: opEq, val: DInt(1)}, false},
		{specCond{col: 9, op: opNe, val: DInt(1)}, false},
	} {
		if got := keeps(t, &scanSpec{conds: []specCond{c.cond}}, row...); got != c.keep {
			t.Errorf("%+v: kept %v, want %v", c.cond, got, c.keep)
		}
		if c.cond.col < len(row) && c.cond.op.holds(row[c.cond.col], c.cond.val) != c.keep {
			t.Errorf("%+v: WHERE and the KV node disagree", c.cond)
		}
	}
	if _, err := (kvEvaluator{}).Begin([]byte("junk")); err == nil {
		t.Fatal("junk began a fold")
	}
}

// goldenFilterSpec and goldenAggSpec, and their hex, fix the two shapes of
// the spec a pushed-down scan carries to the KV node. A diff here is a
// format change: SQL and KV nodes on either side of it could not push work
// to each other.
var goldenFilterSpec = &scanSpec{conds: []specCond{
	{col: 2, op: opLe, val: DFloat(1.5)},
	{col: 0, op: opEq, val: DString("hi")},
	{col: 300, op: opGt, val: DInt(-3)},
	{col: 1, op: opNe, val: DBool(true)},
	{col: 4, op: opGe, val: DNull},
}}

const goldenCondsHex = "05" + // five conditions
	"02" + "03" + "03" + "3ff8000000000000" + // col 2 <= FLOAT 1.5
	"00" + "00" + "04" + "026869" + // col 0 = STRING "hi"
	"ac02" + "04" + "02" + "05" + // col 300 > INT -3 (zigzag 5)
	"01" + "01" + "05" + "01" + // col 1 != BOOL true
	"04" + "05" + "01" // col 4 >= NULL: no payload

const goldenFilterSpecHex = goldenCondsHex + "00" + "00" // no group, no aggregate

var goldenAggSpec = &scanSpec{
	conds:   goldenFilterSpec.conds,
	groupBy: []int{4, 300},
	aggs:    []specAgg{{col: countRows, fn: aggCount}, {col: 2, fn: aggSum}, {col: 2, fn: aggMin}, {col: 130, fn: aggMax}},
}

const goldenAggSpecHex = goldenCondsHex +
	"02" + "04" + "ac02" + // GROUP BY col 4, col 300
	"04" + // four aggregates
	"00" + "01" + // COUNT(*)
	"03" + "02" + "03" + "04" + // SUM and MIN of col 2
	"8301" + "05" // MAX of col 130

// checkGolden checks that spec encodes to hex and hex decodes to spec.
func checkGolden(t *testing.T, spec *scanSpec, hex string) {
	t.Helper()
	want := mustHex(t, hex)
	if got := spec.encode(); !bytes.Equal(got, want) {
		t.Fatalf("encoded spec\n got %x\nwant %x", got, want)
	}
	var got scanSpec
	if err := got.decode(want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, spec) {
		t.Fatalf("decoded spec = %+v, want %+v", got, spec)
	}
}

func TestFilterScanSpecGolden(t *testing.T) {
	checkGolden(t, goldenFilterSpec, goldenFilterSpecHex)
	if goldenFilterSpec.aggregating() {
		t.Fatal("the golden filter aggregates")
	}
}

func TestAggregateScanSpecGolden(t *testing.T) {
	checkGolden(t, goldenAggSpec, goldenAggSpecHex)
	if !goldenAggSpec.aggregating() {
		t.Fatal("the golden aggregation is a filter")
	}
	// GROUP BY with no aggregate still aggregates: its answer is one row
	// per group.
	if s := (scanSpec{groupBy: []int{1}}); !s.aggregating() {
		t.Fatal("a spec with group columns is a filter")
	}
}

// Any spec decodes to what was encoded: conditions on constants of every
// kind (NULL, ±0, ±Inf and NaNs included), group columns and aggregates.
// Bytes that are not a spec do not decode.
func TestScanSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var s scanSpec
		for n := rng.Intn(4); n > 0; n-- {
			s.conds = append(s.conds, specCond{col: rng.Intn(400), op: cmpOp(rng.Intn(6)), val: edgeDatum(rng)})
		}
		for n := rng.Intn(3); n > 0; n-- {
			s.groupBy = append(s.groupBy, rng.Intn(400))
		}
		for n := rng.Intn(4); n > 0; n-- {
			// countRows is -1.
			s.aggs = append(s.aggs, specAgg{col: rng.Intn(401) - 1, fn: aggCount + aggFn(rng.Intn(5))})
		}
		enc := s.encode()
		var got scanSpec
		if err := got.decode(enc); err != nil {
			t.Fatalf("%+v (%x): %v", s, enc, err)
		}
		sameCond := func(a, b specCond) bool { return a.col == b.col && a.op == b.op && sameDatum(a.val, b.val) }
		if !slices.EqualFunc(got.conds, s.conds, sameCond) || !slices.Equal(got.groupBy, s.groupBy) ||
			!slices.Equal(got.aggs, s.aggs) {
			t.Fatalf("%x decoded to %+v, want %+v", enc, got, s)
		}
	}
	var s scanSpec
	if err := s.decode([]byte("junk")); err == nil {
		t.Fatalf("junk decoded to %+v", s)
	}
}

// rejectsAll checks that no input in cases decodes as a spec, and that no
// cut of golden short of its whole does.
func rejectsAll(t *testing.T, golden string, cases map[string]string) {
	t.Helper()
	b := mustHex(t, golden)
	for cut := 0; cut < len(b); cut++ {
		var s scanSpec
		if err := s.decode(b[:cut]); err == nil {
			t.Errorf("spec %s truncated to %d bytes decoded to %+v", golden, cut, s)
		}
	}
	for name, in := range cases {
		var s scanSpec
		if err := s.decode(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, s)
		}
	}
}

// mustDecode checks that in, the undamaged input the malformed ones are
// made from, decodes.
func mustDecode(t *testing.T, in string) {
	t.Helper()
	var s scanSpec
	if err := s.decode(mustHex(t, in)); err != nil {
		t.Fatalf("the undamaged spec %s: %v", in, err)
	}
}

func TestDecodeFilterSpecRejectsMalformedInput(t *testing.T) {
	// One condition, col 0 = BOOL false; no group, no aggregate.
	const one = "01" + "00" + "00" + "0500" + "00" + "00"
	mustDecode(t, one)
	rejectsAll(t, goldenFilterSpecHex, map[string]string{
		"trailing byte":          one + "00",
		"unknown op":             "01" + "00" + "06" + "0500" + "0000",
		"unknown datum tag":      "01" + "00" + "00" + "0600" + "0000",
		"bool out of range":      "01" + "00" + "00" + "0502" + "0000",
		"column beyond int32":    "01" + "8080808008" + "00" + "0500" + "0000",
		"count beyond input":     "02" + one[2:],
		"count near 2^64":        "ffffffffffffffffff01" + one[2:],
		"string longer than it":  "01" + "00" + "00" + "047f68" + "0000",
		"float cut short":        "01" + "00" + "00" + "033ff8" + "0000",
		"unterminated int value": "01" + "00" + "00" + "0280",
		"empty":                  "",
	})
}

func TestDecodeScanSpecRejectsMalformedInput(t *testing.T) {
	// No condition; GROUP BY col 1 with one aggregate, MAX of col 0.
	const oneAgg = "00" + "0101" + "01" + "01" + "05"
	mustDecode(t, oneAgg)
	rejectsAll(t, goldenAggSpecHex, map[string]string{
		"trailing byte":             oneAgg + "00",
		"group column beyond int32": "00" + "01" + "8080808008" + "00",
		"agg column beyond int32":   "00" + "00" + "01" + "8180808008" + "01",
		"group count beyond input":  "00" + "05" + "01" + "00",
		"agg count beyond input":    "00" + "00" + "03" + "01" + "01",
		"agg count near 2^64":       "00" + "00" + "ffffffffffffffffff01" + "01" + "01",
		"no aggregate count":        "00" + "00",
		"no function byte":          "00" + "00" + "01" + "01",
		"function byte zero":        "00" + "00" + "01" + "01" + "00",
		"unknown function byte":     "00" + "00" + "01" + "01" + "06",
	})
}

// A reader that keeps its spec decodes spec after spec into it without
// allocating (but for a STRING constant's bytes), and a short spec decoded
// over a long one keeps nothing of it.
func TestDecodeScanSpecIntoReuses(t *testing.T) {
	q1 := (&scanSpec{
		conds:   []specCond{{col: 3, op: opLe, val: DInt(2400)}},
		groupBy: []int{1},
		aggs:    []specAgg{{col: 2, fn: aggSum}, {col: 2, fn: aggAvg}, {col: countRows, fn: aggCount}},
	}).encode()
	one := (&scanSpec{groupBy: []int{1}, aggs: []specAgg{{col: 0, fn: aggMin}}}).encode()
	var s scanSpec
	if err := s.decode(mustHex(t, goldenAggSpecHex)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.decode(q1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding into a used spec allocates %v times", allocs)
	}
	if err := s.decode(one); err != nil {
		t.Fatal(err)
	}
	if got := s.encode(); !bytes.Equal(got, one) {
		t.Fatalf("decoded over the golden spec, %x re-encodes to %x", one, got)
	}
}

// checkSpecDecode is the property both fuzz targets check: a spec arrives at
// the KV node inside a request, so no input makes its decoder panic,
// decoding into a used spec takes and yields what a fresh decode does, and
// whatever decodes re-encodes to bytes that decode and encode to the same
// bytes again (bytes, not values: a NaN constant is one value of many
// encodings). It returns the decoded spec, or nil.
func checkSpecDecode(t *testing.T, in []byte) *scanSpec {
	var fresh scanSpec
	err := fresh.decode(in)
	used := scanSpec{
		conds:   slices.Clone(goldenAggSpec.conds),
		groupBy: slices.Clone(goldenAggSpec.groupBy),
		aggs:    slices.Clone(goldenAggSpec.aggs),
	}
	if uerr := used.decode(in); (uerr == nil) != (err == nil) {
		t.Fatalf("%x: fresh decode %v, into a used spec %v", in, err, uerr)
	}
	if err != nil {
		return nil
	}
	enc := fresh.encode()
	if got := used.encode(); !bytes.Equal(got, enc) {
		t.Fatalf("%x decodes into a used spec as %x, fresh as %x", in, got, enc)
	}
	var again scanSpec
	if err := again.decode(enc); err != nil {
		t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
	}
	if enc2 := again.encode(); !bytes.Equal(enc2, enc) {
		t.Fatalf("%x re-encodes to %x, then to %x", in, enc, enc2)
	}
	return &fresh
}

// FuzzDecodeScanSpec checks checkSpecDecode from aggregating seeds.
func FuzzDecodeScanSpec(f *testing.F) {
	f.Add(mustHex(f, goldenAggSpecHex))
	for fn := aggCount; fn <= aggMax; fn++ {
		f.Add((&scanSpec{aggs: []specAgg{{col: countRows, fn: aggCount}, {col: 1, fn: fn}}}).encode())
	}
	f.Add(mustHex(f, goldenFilterSpecHex))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) { checkSpecDecode(t, in) })
}

// FuzzDecodeFilterSpec checks checkSpecDecode from filter seeds, and that
// the KV node's fold of whatever filter decodes keeps a row exactly when
// every condition holds under WHERE's comparison, adding no rows of its own.
func FuzzDecodeFilterSpec(f *testing.F) {
	f.Add(mustHex(f, goldenFilterSpecHex))
	f.Add((&scanSpec{}).encode())
	f.Add([]byte("garbage"))
	row := []Datum{DInt(15), DString("m"), DNull, DFloat(math.NaN()), DBool(true)}
	value := encodeRowValue(row)
	f.Fuzz(func(t *testing.T, in []byte) {
		spec := checkSpecDecode(t, in)
		if spec == nil || spec.aggregating() {
			return
		}
		want := true
		for _, c := range spec.conds {
			want = want && c.col < len(row) && c.op.holds(row[c.col], c.val)
		}
		fold, err := kvEvaluator{}.Begin(in)
		if err != nil {
			t.Fatalf("%x decodes but begins no fold: %v", in, err)
		}
		if keep, err := fold.Row(value); err != nil || keep != want {
			t.Fatalf("%x: kept %v, %v; want %v", in, keep, err, want)
		}
		var page kvpb.Page
		if err := fold.Finish(&page); err != nil || len(page.Rows) != 0 {
			t.Fatalf("%x: a filter finished with %d rows, %v", in, len(page.Rows), err)
		}
	})
}
