package sql

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/txn"
)

// pushdownPair is one cluster read by two executors over the same catalog:
// pushed pushes work down to KV, rows does not.
type pushdownPair struct {
	cluster      *kvserver.Cluster
	pushed, rows *Executor
	ps, rs       *Session
}

func newPushdownPair(t testing.TB) *pushdownPair {
	t.Helper()
	c, pushed, ps := newTestDBOnCluster(t)
	rows := NewExecutor(NewCatalog(pushed.coord, 2), pushed.coord, ExecutorConfig{NoPushdown: true})
	return &pushdownPair{cluster: c, pushed: pushed, rows: rows, ps: ps, rs: NewSession(rows, "app")}
}

// splitTable splits table's primary index before each of the given keys.
func (p *pushdownPair) splitTable(t testing.TB, table string, pks ...int64) {
	t.Helper()
	desc, err := p.pushed.catalog.Lookup(context.Background(), table)
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range pks {
		if err := p.cluster.SplitAt(appendKeyFromValues(nil, 2, desc, []Datum{DInt(pk)})); err != nil {
			t.Fatal(err)
		}
	}
}

// pushes reports whether exec runs q's aggregation at the KV node when it
// runs q in its own transaction.
func pushes(t testing.TB, exec *Executor, q string, args ...Datum) bool {
	t.Helper()
	p, err := exec.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := exec.planFor(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tx := new(txn.Txn)
	exec.coord.BeginIn(tx)
	return exec.aggSpec(tx, pl, tableSpan(2, pl.desc), args) != nil
}

// loadRandomTable creates r (k INT PRIMARY KEY, i INT, f FLOAT, s STRING, g
// INT, u INT) and loads n rows: i, f and s are NULL one time in ten, f is
// one of ±0, ±Inf and NaNs of two bit patterns one time in twenty, g takes
// groups values and u is k mod 4500, more distinct values than a scan page
// holds rows.
func loadRandomTable(t testing.TB, s *Session, rng *rand.Rand, n, groups int) {
	t.Helper()
	ctx := context.Background()
	if _, err := s.Execute(ctx, "CREATE TABLE r (k INT PRIMARY KEY, i INT, f FLOAT, s STRING, g INT, u INT)"); err != nil {
		t.Fatal(err)
	}
	strs := []string{"a", "bb", "ccc", "dd", "e"}
	orNull := func(v string) string {
		if rng.Intn(10) == 0 {
			return "NULL"
		}
		return v
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	for base := 0; base < n; base += 500 {
		var q strings.Builder
		var args []Datum
		q.WriteString("INSERT INTO r VALUES ")
		for k := base; k < base+500 && k < n; k++ {
			if k > base {
				q.WriteString(", ")
			}
			f := fmt.Sprintf("%g", (rng.Float64()-0.5)*200)
			if rng.Intn(20) == 0 {
				args = append(args, DFloat(specials[rng.Intn(len(specials))]))
				f = fmt.Sprintf("$%d", len(args))
			}
			fmt.Fprintf(&q, "(%d, %s, %s, %s, %d, %d)", k,
				orNull(fmt.Sprint(rng.Intn(101)-50)), orNull(f), orNull("'"+strs[rng.Intn(len(strs))]+"'"),
				rng.Intn(groups), k%4500)
		}
		if _, err := s.Execute(ctx, q.String(), args...); err != nil {
			t.Fatal(err)
		}
	}
}

// randomAggQuery returns an aggregating SELECT over r that push-down can
// serve: group columns, aggregates of single columns, and WHERE conjuncts
// comparing a column with a constant, of the column's kind or another, or
// NULL.
func randomAggQuery(rng *rand.Rand) string {
	var groupBy []string
	for _, c := range []string{"g", "s", "i", "u", "f"} {
		if rng.Intn(4) == 0 {
			groupBy = append(groupBy, c)
		}
	}
	if len(groupBy) > 2 {
		groupBy = groupBy[:2]
	}
	var sel []string
	for _, c := range groupBy {
		if rng.Intn(2) == 0 {
			sel = append(sel, c)
		}
	}
	aggs := []string{"COUNT(*)", "COUNT(i)", "COUNT(f)", "COUNT(s)", "SUM(i)", "SUM(f)", "AVG(i)", "AVG(f)",
		"MIN(i)", "MAX(i)", "MIN(s)", "MAX(s)", "SUM(u)", "MIN(k)", "MAX(g)", "MIN(f)", "MAX(f)"}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		sel = append(sel, aggs[rng.Intn(len(aggs))])
	}
	q := "SELECT " + strings.Join(sel, ", ") + " FROM r"
	conds := []func() string{
		func() string { return fmt.Sprintf("i %s %d", randomOp(rng), rng.Intn(101)-50) },
		func() string { return fmt.Sprintf("f %s %g", randomOp(rng), (rng.Float64()-0.5)*200) },
		func() string { return fmt.Sprintf("f %s %d", randomOp(rng), rng.Intn(101)-50) },
		func() string {
			return fmt.Sprintf("s %s '%s'", randomOp(rng), []string{"a", "bb", "c", "zz"}[rng.Intn(4)])
		},
		func() string { return fmt.Sprintf("%d %s g", rng.Intn(10), randomOp(rng)) },
		func() string { return fmt.Sprintf("k %s %d", []string{"<", ">=", "!="}[rng.Intn(3)], rng.Intn(6000)) },
		func() string { return fmt.Sprintf("f %s %s", randomOp(rng), []string{"0", "0.0", "-0.0"}[rng.Intn(3)]) },
		// Constants of another kind than the column's, and NULL.
		func() string { return fmt.Sprintf("s %s %d", randomOp(rng), rng.Intn(101)-50) },
		func() string { return fmt.Sprintf("'%s' %s i", []string{"a", "zz"}[rng.Intn(2)], randomOp(rng)) },
		func() string { return fmt.Sprintf("f %s TRUE", randomOp(rng)) },
		func() string { return fmt.Sprintf("%s %s NULL", []string{"i", "f", "s"}[rng.Intn(3)], randomOp(rng)) },
	}
	var where []string
	for n := rng.Intn(3); n > 0; n-- {
		where = append(where, conds[rng.Intn(len(conds))]())
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	if len(groupBy) > 0 {
		q += " GROUP BY " + strings.Join(groupBy, ", ")
	}
	return q
}

func randomOp(rng *rand.Rand) string {
	return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
}

// sameResult fails unless got, the pushed result, equals want, the row
// path's: same columns, rows in the same order, INTs, STRINGs and NULLs
// exactly, FLOATs bit for bit (any NaN equal to any NaN) when exactFloats is
// set, and otherwise finite FLOATs to 1e-9 relative (a sum taken in parts
// rounds differently) and the others exactly.
func sameResult(t *testing.T, q string, got, want *Result, exactFloats bool) {
	t.Helper()
	if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s:\npushed   %v %d rows\nrow path %v %d rows", q, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
	}
	for i := range want.Rows {
		for j, w := range want.Rows[i] {
			g := got.Rows[i][j]
			same := sameDatum(g, w)
			if !same && g.Kind == TypeFloat && w.Kind == TypeFloat {
				switch {
				case math.IsNaN(g.F) || math.IsNaN(w.F):
					same = math.IsNaN(g.F) && math.IsNaN(w.F)
				case !exactFloats && !math.IsInf(w.F, 0):
					same = math.Abs(g.F-w.F) <= 1e-9*math.Max(math.Abs(w.F), 1e-300)
				}
			}
			if !same {
				t.Fatalf("%s: row %d column %d: pushed %+v, row path %+v", q, i, j, g, w)
			}
		}
	}
}

// Every pushed aggregation answers what the row path answers, on one page
// and one range, across pages, across ranges, and with more groups than a
// page holds rows.
func TestPushdownDifferential(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rows        int
		splits      []int64
		exactFloats bool
	}{
		{name: "one page one range", rows: 700, exactFloats: true},
		{name: "pages", rows: scanPageSize + 1200},
		{name: "ranges", rows: 1500, splits: []int64{311, 700, 701, 1200}},
		{name: "pages and ranges", rows: scanPageSize + 1200, splits: []int64{2000, 4500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := randutil.NewRand(int64(tc.rows) + int64(len(tc.splits)))
			p := newPushdownPair(t)
			loadRandomTable(t, p.ps, rng, tc.rows, 1+rng.Intn(12))
			p.splitTable(t, "r", tc.splits...)
			pushed := 0
			for i := 0; i < 40; i++ {
				q := randomAggQuery(rng)
				if pushes(t, p.pushed, q) {
					pushed++
				}
				sameResult(t, q, mustExec(t, p.ps, q), mustExec(t, p.rs, q), tc.exactFloats)
			}
			// Every query is pushable, or the test compares the row path
			// with itself.
			if pushed != 40 {
				t.Fatalf("only %d of 40 queries pushed down", pushed)
			}
			// More groups than a scan page holds rows.
			q := "SELECT u, COUNT(*), SUM(f), MIN(s) FROM r GROUP BY u"
			if !pushes(t, p.pushed, q) {
				t.Fatalf("%s is not pushed down", q)
			}
			sameResult(t, q, mustExec(t, p.ps, q), mustExec(t, p.rs, q), tc.exactFloats)
		})
	}
}

// The shapes push-down must leave to the row path, and the answers it gives
// them regardless.
func TestPushdownEligibility(t *testing.T) {
	p := newPushdownPair(t)
	loadRandomTable(t, p.ps, randutil.NewRand(3), 300, 4)
	for q, want := range map[string]bool{
		"SELECT g, COUNT(*), SUM(i), AVG(f), MIN(s), MAX(i) FROM r WHERE i > 3 AND f < 10 GROUP BY g": true,
		"SELECT COUNT(*) FROM r":                                    true,
		"SELECT g, g + 1, COUNT(*) FROM r GROUP BY g":               true,
		"SELECT COUNT(*) FROM r WHERE r.i >= -2.5":                  true,
		"SELECT i, COUNT(*) FROM r WHERE 3 < i GROUP BY i":          true,
		"SELECT COUNT(*) FROM r WHERE i = $1":                       true,
		"SELECT MIN(f) FROM r":                                      true,
		"SELECT MAX(f), COUNT(*) FROM r":                            true,
		"SELECT COUNT(*) FROM r WHERE s = 3":                        true, // mixed kinds
		"SELECT COUNT(*) FROM r WHERE i < 'x'":                      true,
		"SELECT COUNT(*) FROM r WHERE i = NULL":                     true,
		"SELECT COUNT(*) FROM r WHERE i + 1 > 3":                    false,
		"SELECT COUNT(*) FROM r WHERE i > 3 OR f < 2":               false,
		"SELECT COUNT(*) FROM r WHERE i = g":                        false,
		"SELECT SUM(i + 1) FROM r":                                  false,
		"SELECT SUM(i) + 1 FROM r":                                  false,
		"SELECT g, s, COUNT(*) FROM r GROUP BY g":                   false, // s is not grouped
		"SELECT COUNT(*) FROM r GROUP BY g + 1":                     false,
		"SELECT COUNT(*) FROM r WHERE k = 7":                        false, // point read
		"SELECT COUNT(*) FROM r WHERE 1 / 0 = i":                    false,
		"SELECT g, COUNT(*) FROM r GROUP BY g ORDER BY g":           true,
		"SELECT DISTINCT g FROM r GROUP BY g":                       true,
		"SELECT g, COUNT(*) AS n FROM r GROUP BY g LIMIT 2":         true,
		"SELECT s, MIN(i), MAX(s) FROM r WHERE s != 'a' GROUP BY s": true,
	} {
		args := []Datum{DInt(4)}
		if got := pushes(t, p.pushed, q, args...); got != want {
			t.Errorf("%s: pushed %v, want %v", q, got, want)
		}
		if pushes(t, p.rows, q, args...) {
			t.Errorf("%s: pushed with push-down off", q)
		}
		got, gerr := p.ps.Execute(context.Background(), q, args...)
		rows, rerr := p.rs.Execute(context.Background(), q, args...)
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("%s: pushed err %v, row path err %v", q, gerr, rerr)
		}
		if gerr == nil {
			sameResult(t, q, got, rows, true)
		}
	}
}

// An explicit transaction's COUNT(*) sees the row it inserted: its write is
// buffered, so the statement takes the row path, which overlays the buffer.
// Once the transaction commits, the same text is pushed down again.
func TestPushdownSeesOwnWrites(t *testing.T) {
	p := newPushdownPair(t)
	mustExec(t, p.ps, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
	mustExec(t, p.ps, "INSERT INTO t VALUES (1, 10), (2, 20)")
	const q = "SELECT COUNT(*), SUM(v) FROM t"
	if !pushes(t, p.pushed, q) {
		t.Fatalf("%s is not pushed down", q)
	}
	mustExec(t, p.ps, "BEGIN")
	mustExec(t, p.ps, "INSERT INTO t VALUES (3, 30)")
	if got := rowStrings(mustExec(t, p.ps, q)); fmt.Sprint(got) != "[3,60]" {
		t.Fatalf("inside the transaction %s = %v, want [3,60]", q, got)
	}
	mustExec(t, p.ps, "DELETE FROM t WHERE k = 1")
	if got := rowStrings(mustExec(t, p.ps, q)); fmt.Sprint(got) != "[2,50]" {
		t.Fatalf("after the DELETE %s = %v, want [2,50]", q, got)
	}
	mustExec(t, p.ps, "COMMIT")
	before := p.pushed.rowsProcessed()
	if got := rowStrings(mustExec(t, p.ps, q)); fmt.Sprint(got) != "[2,50]" {
		t.Fatalf("after COMMIT %s = %v, want [2,50]", q, got)
	}
	if n := p.pushed.rowsProcessed() - before; n != 1 {
		t.Fatalf("after COMMIT %s processed %d rows, want its one partial row", q, n)
	}
}

// scanRecorder is a sender that records what each Scan response held.
type scanRecorder struct {
	inner   txn.Sender
	rows    []int
	scanned []int64
}

func (r *scanRecorder) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	resp, err := r.inner.Send(ctx, ba)
	if err == nil {
		for i, req := range ba.Requests {
			if req.Method == kvpb.Scan {
				r.rows = append(r.rows, len(resp.Responses[i].Rows))
				r.scanned = append(r.scanned, resp.Responses[i].ScannedBytes)
			}
		}
	}
	return resp, err
}

// Q1 pushed down: the KV response holds one partial row per group, the KV
// node reads the bytes the row path has it read, and the SQL side is charged
// for three rows and twelve merges instead of 2 000 rows and 6 000 updates.
func TestScanAggregateChargesPushed(t *testing.T) {
	c, _, s := newTestDBOnCluster(t)
	loadLineitem(t, s, 2000)
	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	run := func(cfg ExecutorConfig) (*Executor, *scanRecorder, *Result) {
		rec := &scanRecorder{inner: ds}
		coord := txn.NewCoordinator(rec, c.Clock(), 2)
		exec := NewExecutor(NewCatalog(coord, 2), coord, cfg)
		sess := NewSession(exec, "app")
		// The first run reads the catalog; the second is the one measured.
		mustExec(t, sess, q1)
		rec.rows, rec.scanned = nil, nil
		return exec, rec, mustExec(t, sess, q1)
	}
	_, rowRec, rowRes := run(ExecutorConfig{NoPushdown: true})
	exec, rec, res := run(ExecutorConfig{})
	if fmt.Sprint(rowStrings(res)) != fmt.Sprint(rowStrings(rowRes)) {
		t.Fatalf("pushed Q1 = %v, row path %v", rowStrings(res), rowStrings(rowRes))
	}
	if fmt.Sprint(rec.rows) != "[3]" || fmt.Sprint(rowRec.rows) != "[2000]" {
		t.Fatalf("Q1's scan responses held %v rows pushed, %v on the row path; want [3] and [2000]", rec.rows, rowRec.rows)
	}
	if fmt.Sprint(rec.scanned) != fmt.Sprint(rowRec.scanned) {
		t.Fatalf("Q1 pushed read %v bytes at the KV node, the row path %v", rec.scanned, rowRec.scanned)
	}
	rows, cpu := exec.rowsProcessed(), exec.SQLCPUSeconds()
	mustExec(t, NewSession(exec, "app"), q1)
	const wantRows, wantCPU = 3, 1.4970000000000001e-05
	gotRows, gotCPU := exec.rowsProcessed()-rows, exec.SQLCPUSeconds()-cpu
	t.Logf("Q1 pushed: rows %d, cpu %.17g", gotRows, gotCPU)
	if gotRows != wantRows || math.Abs(gotCPU-wantCPU) > 1e-9*wantCPU {
		t.Fatalf("Q1 pushed charged %d rows, %.17g s; want %d, %.17g", gotRows, gotCPU, wantRows, wantCPU)
	}
}

// Each range and each page of a pushed scan contributes its own partial row
// for a group, and the merge of their states is the state of the whole, for
// every function.
func TestAggStateMergeMatchesUpdate(t *testing.T) {
	rng := randutil.NewRand(11)
	vals := func() []Datum {
		var ds []Datum
		for n := rng.Intn(20); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				ds = append(ds, DNull)
			default:
				ds = append(ds, DInt(int64(rng.Intn(200)-100)))
			}
		}
		return ds
	}
	for fn := aggCount; fn <= aggMax; fn++ {
		for i := 0; i < 200; i++ {
			all, parts := aggState{fn: fn, isInt: true}, aggState{fn: fn, isInt: true}
			for p := rng.Intn(5); p >= 0; p-- {
				part := aggState{fn: fn, isInt: true}
				for _, d := range vals() {
					part.update(d)
					all.update(d)
				}
				// The partial crosses the boundary encoded.
				r := binenc.NewReader(appendAggState(nil, &part))
				decoded := consumeAggState(r, fn)
				if err := r.Done(); err != nil {
					t.Fatal(err)
				}
				parts.merge(&decoded)
			}
			if !sameAggState(&parts, &all) {
				t.Fatalf("fn %d: merged %+v, updated %+v", fn, parts, all)
			}
		}
	}
}

// sameAggState reports whether a and b are equal field by field, their MIN
// and MAX values as their encodings.
func sameAggState(a, b *aggState) bool {
	return a.fn == b.fn && a.count == b.count && a.sum == b.sum && a.sumI == b.sumI && a.isInt == b.isInt &&
		a.seen == b.seen && bytes.Equal(AppendDatum(nil, a.min), AppendDatum(nil, b.min)) &&
		bytes.Equal(AppendDatum(nil, a.max), AppendDatum(nil, b.max))
}

// q1Push is a Q1-like aggregation with an aggregate of each kind.
const q1Push = "SELECT l_returnflag, SUM(l_quantity), AVG(l_price), COUNT(*), MIN(l_quantity), MAX(l_returnflag) FROM lineitem GROUP BY l_returnflag"

// pushPlanOf returns the aggregation push-down of q over TPC-H's lineitem.
func pushPlanOf(t testing.TB, q string) *aggPush {
	t.Helper()
	desc := &TableDescriptor{Name: "lineitem", Columns: []ColumnDef{
		{Name: "l_key", Type: TypeInt}, {Name: "l_partkey", Type: TypeInt}, {Name: "l_quantity", Type: TypeInt},
		{Name: "l_price", Type: TypeFloat}, {Name: "l_returnflag", Type: TypeString}, {Name: "l_shipdate", Type: TypeInt},
	}, PrimaryKey: []int{0}}
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := buildPlan(stmt, desc, nil)
	if err != nil || pl.push == nil {
		t.Fatalf("%s: plan %+v, %v", q, pl, err)
	}
	return pl.push
}

// FuzzDecodePartial: a partial row comes from the KV layer, so no value
// makes its decoder panic, and whatever decodes re-encodes to the same bytes
// (bytes, not values: a NaN never equals itself).
func FuzzDecodePartial(f *testing.F) {
	p := pushPlanOf(f, q1Push)
	seed := AppendDatum(nil, DString("A"))
	for _, a := range []aggState{
		{fn: aggSum, count: 3, isInt: true, sumI: 40, sum: 40, min: DInt(2), max: DInt(30), seen: true},
		{fn: aggAvg, count: 3, sum: 1.5, min: DFloat(-0.5), max: DFloat(2), seen: true},
		{fn: aggCount, count: 7, isInt: true, seen: true},
		{fn: aggMin, isInt: true},
		{fn: aggMax, count: 1, isInt: true, sumI: 5, sum: 5, min: DString("A"), max: DString("A"), seen: true},
	} {
		seed = appendAggState(seed, &a)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		vals, states, err := decodePartial(p, in, nil, nil)
		if err != nil {
			return
		}
		var enc []byte
		for _, v := range vals {
			enc = AppendDatum(enc, v)
		}
		for i := range states {
			enc = appendAggState(enc, &states[i])
		}
		vals2, states2, err := decodePartial(p, enc, nil, nil)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		var enc2 []byte
		for _, v := range vals2 {
			enc2 = AppendDatum(enc2, v)
		}
		for i := range states2 {
			enc2 = appendAggState(enc2, &states2[i])
		}
		if string(enc2) != string(enc) {
			t.Fatalf("%x re-encodes to %x, then to %x", in, enc, enc2)
		}
	})
}

// A malformed partial row fails to decode, and a well-formed one decodes
// whole.
func TestDecodePartialRejectsMalformedInput(t *testing.T) {
	p := pushPlanOf(t, q1Push)
	good := AppendDatum(nil, DString("N"))
	for range p.aggs {
		good = appendAggState(good, &aggState{count: 1, isInt: true, sumI: 2, sum: 2, min: DInt(2), max: DInt(2), seen: true})
	}
	vals, states, err := decodePartial(p, good, nil, nil)
	if err != nil || len(vals) != 1 || vals[0] != DString("N") || len(states) != len(p.aggs) || states[0].sumI != 2 {
		t.Fatalf("decoded %v %+v, %v", vals, states, err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodePartial(p, good[:cut], nil, nil); err == nil {
			t.Errorf("a partial row cut to %d of %d bytes decoded", cut, len(good))
		}
	}
	if _, _, err := decodePartial(p, append(good, 0), nil, nil); err == nil {
		t.Error("a partial row with a trailing byte decoded")
	}
	huge := AppendDatum(nil, DString("N"))
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, _, err := decodePartial(p, huge, nil, nil); err == nil {
		t.Error("a count beyond int64 decoded")
	}
}

// The KV side's scan evaluator, driven directly: rows that fail the filter
// are not folded, undecodable rows fail an aggregation, and the fold's
// groups outgrow the linear search without losing a row.
func TestScanFoldGroups(t *testing.T) {
	spec := (&scanSpec{
		conds:   []specCond{{col: 2, op: opGe, val: DInt(1)}},
		groupBy: []int{0},
		aggs:    []specAgg{{col: countRows, fn: aggCount}, {col: 1, fn: aggSum}},
	}).encode()
	fold, err := kvEvaluator{}.Begin(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every seventh row past the first round of groups fails the filter.
	const groups = 3 * linearGroups
	passes := func(i int) bool { return i < groups || i%7 != 0 }
	for i := 0; i < 10*groups; i++ {
		flag := int64(0)
		if passes(i) {
			flag = 1
		}
		keep, err := fold.Row(encodeRowValue([]Datum{DInt(int64(i % groups)), DInt(int64(i)), DInt(flag)}))
		if keep || err != nil {
			t.Fatalf("row %d: keep %v, err %v", i, keep, err)
		}
	}
	if _, err := fold.Row([]byte{0x05}); err == nil {
		t.Fatal("an undecodable row was folded")
	}
	var page kvpb.Page
	if err := fold.Finish(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != groups {
		t.Fatalf("%d partial rows, want %d", len(page.Rows), groups)
	}
	var count, want int64
	for i := 0; i < 10*groups; i++ {
		if passes(i) {
			want++
		}
	}
	for g, row := range page.Rows {
		if want := appendGroupKey(nil, DInt(int64(g))); string(row.Key) != string(want) {
			t.Fatalf("partial %d has key %x, want %x (first appearance order)", g, []byte(row.Key), want)
		}
		r := binenc.NewReader(row.Value)
		if d := ConsumeDatum(r); d != DInt(int64(g)) {
			t.Fatalf("partial %d is for group %v", g, d)
		}
		rows := consumeAggState(r, aggCount)
		consumeAggState(r, aggSum)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		count += rows.count
	}
	if count != want {
		t.Fatalf("folded %d rows, want %d", count, want)
	}
}

// unreadString is a STRING column no spec of the fold tests reads, wide
// enough that decoding it would allocate.
var unreadString = DString(strings.Repeat("x", 40))

// The KV side's fold builds Datums only for the columns its spec reads: a
// row's unread STRING column costs it no allocation.
func TestScanFoldSkipsUnreadColumns(t *testing.T) {
	fold, err := kvEvaluator{}.Begin(pushPlanOf(t, q1).spec)
	if err != nil {
		t.Fatal(err)
	}
	value := encodeRowValue(append(lineitemRow(1), unreadString))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fold.Row(value); err != nil {
			t.Fatal(err)
		}
	})
	if err := fold.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("folding a row with an unread STRING allocates %v times", allocs)
	}
}

// refFold is the reference FuzzScanFoldRow checks the KV node's fold
// against. It shares none of the fold's code: it decodes each whole row into
// Datums and evaluates the spec with the row path's cmpOp.holds,
// appendGroupKey and aggState.update, keeping each group's first-row values
// as Datums.
type refFold struct {
	spec   scanSpec
	order  []string // group keys, in order of first appearance
	groups map[string]*refGroup
}

type refGroup struct {
	vals   []Datum
	states []aggState
}

func newRefFold(t *testing.T, spec []byte) *refFold {
	f := &refFold{groups: map[string]*refGroup{}}
	if err := f.spec.decode(spec); err != nil {
		t.Fatal(err)
	}
	return f
}

// row is kvserver.ScanFold's Row.
func (f *refFold) row(value []byte) (bool, error) {
	row, err := decodeRowValue(nil, value)
	if err != nil {
		return false, err
	}
	for _, c := range f.spec.conds {
		if c.col >= len(row) || !c.op.holds(row[c.col], c.val) {
			return false, nil
		}
	}
	if !f.spec.aggregating() {
		return true, nil
	}
	var key []byte
	for _, c := range f.spec.groupBy {
		if c >= len(row) {
			return false, fmt.Errorf("sql: group column %d of a %d-column row", c, len(row))
		}
		key = appendGroupKey(key, row[c])
	}
	g := f.groups[string(key)]
	if g == nil {
		g = &refGroup{}
		for _, c := range f.spec.groupBy {
			g.vals = append(g.vals, row[c])
		}
		for _, a := range f.spec.aggs {
			g.states = append(g.states, aggState{fn: a.fn, isInt: true})
		}
		f.groups[string(key)] = g
		f.order = append(f.order, string(key))
	}
	for j, a := range f.spec.aggs {
		switch {
		case a.col == countRows:
			g.states[j].countRow()
		case a.col >= len(row):
			return false, fmt.Errorf("sql: aggregate column %d of a %d-column row", a.col, len(row))
		default:
			g.states[j].update(row[a.col])
		}
	}
	return false, nil
}

// partials returns the partial rows the fold finishes with.
func (f *refFold) partials() []kvpb.KeyValue {
	var out []kvpb.KeyValue
	for _, key := range f.order {
		g := f.groups[key]
		var value []byte
		for _, v := range g.vals {
			value = AppendDatum(value, v)
		}
		for i := range g.states {
			value = appendAggState(value, &g.states[i])
		}
		out = append(out, kvpb.KeyValue{Key: []byte(key), Value: value})
	}
	return out
}

// FuzzScanFoldRow: for any row value, folded between two well-formed rows
// under one of a few specs, Row fails exactly where the reference does (so
// where decodeRowValue does, or where a group or aggregate column is past
// the row's end), with the same error, keeps what the reference keeps, and
// the fold finishes with the reference's partial rows, byte for byte.
func FuzzScanFoldRow(f *testing.F) {
	specs := [][]byte{
		pushPlanOf(f, q1).spec,
		pushPlanOf(f, q1Push).spec,
		goldenFilterSpec.encode(),
		(&scanSpec{}).encode(),
		(&scanSpec{conds: []specCond{{col: 3, op: opGt, val: DInt(100)}, {col: 4, op: opNe, val: DString("N")}}}).encode(),
		(&scanSpec{groupBy: []int{4, 1}, aggs: []specAgg{
			{col: countRows, fn: aggCount}, {col: 3, fn: aggMin}, {col: 3, fn: aggMax},
			{col: 2, fn: aggSum}, {col: 0, fn: aggAvg}, {col: 4, fn: aggMax},
		}}).encode(),
		(&scanSpec{conds: []specCond{{col: 2, op: opGe, val: DInt(0)}}, aggs: []specAgg{{col: 6, fn: aggMin}}}).encode(),
		// STRING conditions and group columns, and MIN and MAX of a STRING.
		(&scanSpec{
			conds:   []specCond{{col: 4, op: opGe, val: DString("A")}, {col: 6, op: opLt, val: DString("zz")}},
			groupBy: []int{6, 4},
			aggs:    []specAgg{{col: 6, fn: aggMin}, {col: 6, fn: aggMax}, {col: 4, fn: aggMin}, {col: countRows, fn: aggCount}},
		}).encode(),
		// A FLOAT constant against an INT column and an INT constant
		// against a FLOAT one; MIN, MAX, SUM and AVG of a column whose rows
		// mix INTs and FLOATs; grouping by it.
		(&scanSpec{
			conds:   []specCond{{col: 2, op: opLt, val: DFloat(40.5)}, {col: 3, op: opGe, val: DInt(7)}},
			groupBy: []int{3},
			aggs: []specAgg{
				{col: 3, fn: aggMin}, {col: 3, fn: aggMax}, {col: 3, fn: aggSum}, {col: 3, fn: aggAvg},
				{col: 2, fn: aggMax}, {col: 3, fn: aggCount},
			},
		}).encode(),
	}
	row := lineitemRow(7)
	good := encodeRowValue(row)
	withCols := func(i int, cols map[int]Datum) []byte {
		r := append(lineitemRow(i), DString("0123456789"))
		for c, d := range cols {
			r[c] = d
		}
		return encodeRowValue(r)
	}
	for i := range specs {
		f.Add(uint8(i), good)
		f.Add(uint8(i), encodeRowValue(append(lineitemRow(8), unreadString)))
		f.Add(uint8(i), encodeRowValue(append(lineitemRow(9), DBool(true), DNull)))
		f.Add(uint8(i), encodeRowValue(row[:3]))
		f.Add(uint8(i), good[:len(good)-1])
		f.Add(uint8(i), append(slices.Clone(good), 0))
		f.Add(uint8(i), []byte{})
		// NaN, -0, NULL and INT/FLOAT mixes where the specs read.
		f.Add(uint8(i), withCols(10, map[int]Datum{3: DFloat(math.NaN())}))
		f.Add(uint8(i), withCols(11, map[int]Datum{3: DFloat(math.Copysign(0, -1)), 2: DFloat(-0.5)}))
		f.Add(uint8(i), withCols(12, map[int]Datum{3: DNull, 4: DNull, 6: DNull}))
		f.Add(uint8(i), withCols(13, map[int]Datum{3: DInt(7), 2: DFloat(40.5)}))
		f.Add(uint8(i), withCols(14, map[int]Datum{3: DFloat(7), 6: DString("")}))
	}
	// An unread column with an unknown tag, a bool out of range, a string
	// longer than the row.
	f.Add(uint8(0), mustHex(f, "06"+"0202"+"0600"+"0202"+"0202"+"0202"+"0202"))
	f.Add(uint8(0), mustHex(f, "0202020502"))
	f.Add(uint8(0), mustHex(f, "0302020420"+"02"+"0202"))
	f.Fuzz(func(t *testing.T, which uint8, value []byte) {
		spec := specs[int(which)%len(specs)]
		fold, err := kvEvaluator{}.Begin(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefFold(t, spec)
		_, derr := decodeRowValue(nil, value)
		for i, v := range [][]byte{good, value, good} {
			keep, err := fold.Row(v)
			wantKeep, wantErr := ref.row(v)
			if keep != wantKeep || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("spec %x, row %d %x: kept %v, %v; the reference %v, %v", spec, i, v, keep, err, wantKeep, wantErr)
			}
			if i == 1 && derr != nil && err == nil {
				t.Fatalf("row %x folded, but decodeRowValue fails: %v", v, derr)
			}
			if err != nil {
				break
			}
		}
		var got kvpb.Page
		if err := fold.Finish(&got); err != nil {
			t.Fatal(err)
		}
		want := ref.partials()
		if len(got.Rows) != len(want) {
			t.Fatalf("spec %x, row %x: %d partial rows, the reference %d", spec, value, len(got.Rows), len(want))
		}
		for i := range want {
			if !bytes.Equal(got.Rows[i].Key, want[i].Key) || !bytes.Equal(got.Rows[i].Value, want[i].Value) {
				t.Fatalf("spec %x, row %x: partial %d is %x=%x, the reference %x=%x", spec, value, i,
					got.Rows[i].Key, got.Rows[i].Value, want[i].Key, want[i].Value)
			}
		}
	})
}

// stringGroupSpec groups by, filters on, and takes MIN and MAX of column 6
// of stringGroupRow, a 10-byte STRING.
var stringGroupSpec = &scanSpec{
	conds:   []specCond{{col: 6, op: opGe, val: DString("group-0001")}},
	groupBy: []int{6},
	aggs:    []specAgg{{col: countRows, fn: aggCount}, {col: 6, fn: aggMin}, {col: 6, fn: aggMax}},
}

// stringGroupRow is lineitemRow(i) and a 10-byte STRING of four values.
func stringGroupRow(i int) []Datum {
	return append(lineitemRow(i), DString(fmt.Sprintf("group-%04d", i%4)))
}

// foldCases are the folds BenchmarkScanFold times and TestScanFoldAllocs
// counts: a spec over 2 000 encoded rows, and the partial rows it finishes
// with.
var foldCases = []struct {
	name     string
	spec     func(testing.TB) []byte
	row      func(i int) []Datum
	partials int
}{
	{"q1", q1Spec, lineitemRow, 3},
	{"unread_string", q1Spec, func(i int) []Datum { return append(lineitemRow(i), unreadString) }, 3},
	{"string_group", func(testing.TB) []byte { return stringGroupSpec.encode() }, stringGroupRow, 3},
}

func q1Spec(tb testing.TB) []byte { return pushPlanOf(tb, q1).spec }

// encodeRows returns the encodings of rows 1 to n of row.
func encodeRows(n int, row func(i int) []Datum) [][]byte {
	values := make([][]byte, n)
	for i := range values {
		values[i] = encodeRowValue(row(i + 1))
	}
	return values
}

// foldAll folds values under spec as a pushed scan does and checks the
// number of partial rows it finishes with.
func foldAll(tb testing.TB, spec []byte, values [][]byte, partials int) {
	fold, err := kvEvaluator{}.Begin(spec)
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range values {
		if _, err := fold.Row(v); err != nil {
			tb.Fatal(err)
		}
	}
	var page kvpb.Page
	if err := fold.Finish(&page); err != nil || len(page.Rows) != partials {
		tb.Fatalf("finished with %d partial rows, %v; want %d", len(page.Rows), err, partials)
	}
}

// BenchmarkScanFold is the leaseholder's side of a pushed aggregation
// alone, with no transaction and no KV: q1 is Q1's spec folded over 2 000
// encoded lineitem rows; unread_string gives each row an unread 40-byte
// STRING column; string_group groups, filters and takes MIN and MAX on a
// 10-byte STRING column.
func BenchmarkScanFold(b *testing.B) {
	for _, bc := range foldCases {
		b.Run(bc.name, func(b *testing.B) {
			spec, values := bc.spec(b), encodeRows(2000, bc.row)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				foldAll(b, spec, values, bc.partials)
			}
		})
	}
}

// A fold copies no STRING it reads: a column's bytes alias the row value, so
// a fold of 2 000 rows that groups, filters and takes MIN and MAX on a
// STRING makes the allocations of its page alone, as Q1 does. It made one
// allocation per row when each read STRING became a Datum.
func TestScanFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, c := range foldCases {
		spec, values := c.spec(t), encodeRows(2000, c.row)
		foldAll(t, spec, values, c.partials) // a pooled fold, warm
		allocs := testing.AllocsPerRun(20, func() { foldAll(t, spec, values, c.partials) })
		t.Logf("%s: %v allocations per fold of 2000 rows", c.name, allocs)
		if allocs > 6 {
			t.Errorf("%s: a fold of 2000 rows makes %v allocations, want at most 6", c.name, allocs)
		}
	}
}

// Sessions on one executor run pushed aggregations at once, over ranges the
// DistSender visits in parallel: folds are drawn from one pool and specs
// from one cache at every node, and each answer must be the whole table's.
func TestPushdownConcurrentSessions(t *testing.T) {
	p := newPushdownPair(t)
	loadRandomTable(t, p.ps, randutil.NewRand(5), 1200, 6)
	p.splitTable(t, "r", 300, 600, 900)
	queries := []string{
		"SELECT g, COUNT(*), SUM(i), MIN(s) FROM r GROUP BY g",
		"SELECT COUNT(*), AVG(f) FROM r WHERE i > 0",
		"SELECT s, MAX(i) FROM r WHERE f < 50 GROUP BY s",
		"SELECT COUNT(*) FROM r WHERE g = $1",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = fmt.Sprint(rowStrings(mustExec(t, p.rs, q, DInt(3))))
	}
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			s := NewSession(p.pushed, "app")
			for i := 0; i < 20; i++ {
				q := (w + i) % len(queries)
				res, err := s.Execute(context.Background(), queries[q], DInt(3))
				if err == nil && fmt.Sprint(rowStrings(res)) != want[q] {
					err = fmt.Errorf("%s = %v, want %s", queries[q], rowStrings(res), want[q])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
