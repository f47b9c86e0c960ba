package sql

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// q1 is TPC-H Q1 as the benchmark's scan_agg workload runs it.
const q1 = "SELECT l_returnflag, SUM(l_quantity) AS sum_qty, SUM(l_price) AS sum_price, " +
	"AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order " +
	"FROM lineitem WHERE l_shipdate <= 2400 GROUP BY l_returnflag ORDER BY l_returnflag"

// lineitemRow is row i of the lineitem table loadLineitem loads: its values
// are a function of i.
func lineitemRow(i int) []Datum {
	return []Datum{
		DInt(int64(i)), DInt(int64(i%37 + 1)), DInt(int64(1 + i%50)),
		DFloat(float64(i*7%1000) + 0.25), DString("ANR"[i%3 : i%3+1]), DInt(int64(i * 13 % 2500)),
	}
}

// loadLineitem creates TPC-H's lineitem and loads n rows whose values are a
// function of the row number, 100 rows to an INSERT.
func loadLineitem(tb testing.TB, s *Session, n int) {
	tb.Helper()
	ctx := context.Background()
	if _, err := s.Execute(ctx, "CREATE TABLE lineitem (l_key INT PRIMARY KEY, l_partkey INT, "+
		"l_quantity INT, l_price FLOAT, l_returnflag STRING, l_shipdate INT)"); err != nil {
		tb.Fatal(err)
	}
	for base := 1; base <= n; base += 100 {
		var q strings.Builder
		q.WriteString("INSERT INTO lineitem VALUES ")
		for i := base; i < base+100 && i <= n; i++ {
			if i > base {
				q.WriteString(", ")
			}
			r := lineitemRow(i)
			fmt.Fprintf(&q, "(%s, %s, %s, %s, '%s', %s)", r[0], r[1], r[2], r[3], r[4], r[5])
		}
		if _, err := s.Execute(ctx, q.String()); err != nil {
			tb.Fatal(err)
		}
	}
}

// GROUP BY, DISTINCT and hash-join keys identify values exactly: a string
// holding another row's separator, or two floats equal to six decimals, are
// different values; -0 and 0 are one.
func TestGroupKeysAreUnambiguous(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup []string
		query string
		want  []string
	}{
		{
			name:  "GROUP BY strings holding the separator",
			setup: []string{"CREATE TABLE t (k INT PRIMARY KEY, a STRING, b STRING)", "INSERT INTO t VALUES (1, 'x|1:y', 'z'), (2, 'x', 'y|1:z')"},
			query: "SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a",
			want:  []string{"x,y|1:z,1", "x|1:y,z,1"},
		},
		{
			name:  "DISTINCT strings holding the separator",
			setup: []string{"CREATE TABLE t (k INT PRIMARY KEY, a STRING, b STRING)", "INSERT INTO t VALUES (1, 'x|1:y', 'z'), (2, 'x', 'y|1:z')"},
			query: "SELECT DISTINCT a, b FROM t ORDER BY a",
			want:  []string{"x,y|1:z", "x|1:y,z"},
		},
		{
			name:  "GROUP BY floats equal to six decimals",
			setup: []string{"CREATE TABLE t (k INT PRIMARY KEY, f FLOAT)", "INSERT INTO t VALUES (1, 0.1234561), (2, 0.1234564), (3, 0.1234564)"},
			query: "SELECT COUNT(*) AS n FROM t GROUP BY f ORDER BY n",
			want:  []string{"1", "2"},
		},
		{
			name:  "DISTINCT floats equal to six decimals",
			setup: []string{"CREATE TABLE t (k INT PRIMARY KEY, f FLOAT)", "INSERT INTO t VALUES (1, 0.1234561), (2, 0.1234564)"},
			query: "SELECT DISTINCT f FROM t",
			want:  []string{"0.123456", "0.123456"},
		},
		{
			name: "hash join on floats equal to six decimals",
			setup: []string{
				"CREATE TABLE l (lk INT PRIMARY KEY, lf FLOAT)", "CREATE TABLE r (rk INT PRIMARY KEY, rf FLOAT)",
				"INSERT INTO l VALUES (1, 0.1234561)", "INSERT INTO r VALUES (1, 0.1234564), (2, 0.1234561)",
			},
			query: "SELECT lk, rk FROM l JOIN r ON lf = rf",
			want:  []string{"1,2"},
		},
		{
			name:  "GROUP BY -0 and 0",
			setup: []string{"CREATE TABLE t (k INT PRIMARY KEY, f FLOAT)", "INSERT INTO t VALUES (1, 0.0), (2, -0.0), (3, 1.5)"},
			query: "SELECT COUNT(*) AS n FROM t GROUP BY f ORDER BY n",
			want:  []string{"1", "2"},
		},
		{
			name:  "DISTINCT -0 and 0",
			setup: []string{"CREATE TABLE t (k INT PRIMARY KEY, f FLOAT)", "INSERT INTO t VALUES (1, 0.0), (2, -0.0)"},
			query: "SELECT DISTINCT f FROM t",
			want:  []string{"0"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, s := newTestDB(t)
			for _, q := range tc.setup {
				mustExec(t, s, q)
			}
			if got := rowStrings(mustExec(t, s, tc.query)); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("%s = %v, want %v", tc.query, got, tc.want)
			}
		})
	}
}

// A NULL join column matches no row, in the hash join as in the nested loop.
func TestHashJoinSkipsNulls(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE l (lk INT PRIMARY KEY, lv INT)")
	mustExec(t, s, "CREATE TABLE r (rk INT PRIMARY KEY, rv INT)")
	mustExec(t, s, "INSERT INTO l (lk) VALUES (1)")
	mustExec(t, s, "INSERT INTO l VALUES (2, 7)")
	mustExec(t, s, "INSERT INTO r (rk) VALUES (1)")
	mustExec(t, s, "INSERT INTO r VALUES (2, 7)")
	if got := rowStrings(mustExec(t, s, "SELECT lk, rk FROM l JOIN r ON lv = rv")); fmt.Sprint(got) != "[2,2]" {
		t.Fatalf("join = %v, want [2,2]", got)
	}
}

// Q1's charges on the row path: every scanned row once, every aggregate
// update once — now summed and charged once per statement — and the bytes of
// every page. The totals are those of one chargeAgg(1) per update.
func TestScanAggregateCharges(t *testing.T) {
	exec, s := newRowPathDB(t)
	loadLineitem(t, s, 2000)
	rows, cpu := exec.rowsProcessed(), exec.SQLCPUSeconds()
	res := mustExec(t, s, q1)
	if want := []string{"A,16310,322450,25.484375,640", "N,16365,322371.5,25.490654,642", "R,16240,322653.25,25.335413,641"}; fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("Q1 = %v, want %v", rowStrings(res), want)
	}
	const wantRows, wantCPU = 2000, 0.0085927600000028845
	gotRows, gotCPU := exec.rowsProcessed()-rows, exec.SQLCPUSeconds()-cpu
	t.Logf("Q1 rows %d, cpu %.17g", gotRows, gotCPU)
	if gotRows != wantRows || math.Abs(gotCPU-wantCPU) > 1e-12*wantCPU {
		t.Fatalf("Q1 charged %d rows, %.17g s; want %d, %.17g", gotRows, gotCPU, wantRows, wantCPU)
	}
}

// allocsPerQuery is the allocations one run of q through exec costs, the
// text's parse and plan cached as a session's repeated statement finds them.
func allocsPerQuery(t *testing.T, exec *Executor, q string, args ...Datum) float64 {
	t.Helper()
	ctx := context.Background()
	return testing.AllocsPerRun(20, func() {
		p, err := exec.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.ExecuteStmt(ctx, p, args, nil, new(Scratch)); err != nil {
			t.Fatal(err)
		}
	})
}

// Q1 aggregates as it scans: no allocation is made per row, so ten times the
// rows costs only the few more pages and key-slab chunks.
func TestScanAggregateAllocsDoNotGrowWithRows(t *testing.T) {
	var allocs []float64
	for _, n := range []int{200, 2000} {
		exec, s := newTestDB(t)
		loadLineitem(t, s, n)
		allocs = append(allocs, allocsPerQuery(t, exec, q1))
	}
	t.Logf("Q1 allocations at 200 and 2000 rows: %v", allocs)
	if d := allocs[1] - allocs[0]; d > 30 {
		t.Fatalf("Q1 makes %v allocations over 200 rows and %v over 2000 (+%v), want at most +30", allocs[0], allocs[1], d)
	}
}

// Q1 recycles its KV page: the row headers and the key slab come back from
// the page pool every query, so after warm-up a query allocates a few kB of
// plan-independent state. It allocated about 300 kB when every scan grew a
// fresh 2 000-row page by doubling and decoded its keys into fresh chunks.
func TestScanAggregateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, s := newTestDB(t)
	loadLineitem(t, s, 2000)
	for i := 0; i < 5; i++ {
		mustExec(t, s, q1)
	}
	// The median query: one that runs on another P than the last release
	// finds the pool empty and regrows a page.
	var bytes [21]uint64
	var before, after runtime.MemStats
	for i := range bytes {
		runtime.ReadMemStats(&before)
		mustExec(t, s, q1)
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(bytes[:])
	got := bytes[len(bytes)/2]
	t.Logf("Q1 over 2000 rows: %d B per query (median)", got)
	const want = 32 << 10
	if got > want {
		t.Fatalf("Q1 over 2000 rows allocates %d B per query, want at most %d", got, want)
	}
}

// UPDATE and DELETE keep the primary keys of the rows they change past the
// scan, and a full scan's keys live in a page the next page reuses: over more
// than one page, a kept key that still pointed into the released page would
// name a row of page 2. Every row must change exactly once, under its own key.
func TestUpdateDeleteKeepKeysAcrossPages(t *testing.T) {
	_, s := newTestDB(t)
	const n = scanPageSize + 904
	mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
	for base := 1; base <= n; base += 500 {
		var q strings.Builder
		q.WriteString("INSERT INTO t VALUES ")
		for i := base; i < base+500 && i <= n; i++ {
			if i > base {
				q.WriteString(", ")
			}
			fmt.Fprintf(&q, "(%d, %d)", i, 10*i)
		}
		mustExec(t, s, q.String())
	}
	// A page's slab grows to hold a whole page when it is released, so the
	// first scans read into fresh chunks; later ones decode page 2's keys
	// over page 1's. (A scan that runs on another P than the last release
	// finds the pool empty, hence several rounds.)
	for round := int64(1); round <= 6; round++ {
		if res := mustExec(t, s, "UPDATE t SET v = v + 1"); res.RowsAffected != n {
			t.Fatalf("round %d: UPDATE changed %d rows, want %d", round, res.RowsAffected, n)
		}
		res := mustExec(t, s, "SELECT k, v FROM t ORDER BY k")
		if len(res.Rows) != n {
			t.Fatalf("round %d: after UPDATE the table holds %d rows, want %d", round, len(res.Rows), n)
		}
		for i, row := range res.Rows {
			k, v := row[0].I, row[1].I
			if want := int64(i + 1); k != want || v != 10*want+round {
				t.Fatalf("round %d: row %d after UPDATE = (%d, %d), want (%d, %d)", round, i, k, v, want, 10*want+round)
			}
		}
	}
	if res := mustExec(t, s, "DELETE FROM t WHERE v > 0"); res.RowsAffected != n {
		t.Fatalf("DELETE removed %d rows, want %d", res.RowsAffected, n)
	}
	if got := rowStrings(mustExec(t, s, "SELECT COUNT(*) FROM t")); fmt.Sprint(got) != "[0]" {
		t.Fatalf("after DELETE COUNT(*) = %v, want 0", got)
	}
}

// A point SELECT decodes its one row into the scan's buffer and projects it:
// the scan's visitor is not a heap allocation, nor is WHERE bound twice. It
// made 9 more allocations when it read a []tableRow and filtered it apart,
// and 12 more when every execution parsed its text, bound its columns and
// collected its WHERE equalities again. The 300 statements first take the
// process past 256 transaction IDs, beyond which boxing an ID allocates: an
// untraced transaction must box none.
func TestPointSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	exec, s := newTestDB(t)
	loadLineitem(t, s, 10)
	const q = "SELECT l_price FROM lineitem WHERE l_key = $1"
	for i := 0; i < 300; i++ {
		mustExec(t, s, q, DInt(7))
	}
	const want = 6
	got := allocsPerQuery(t, exec, q, DInt(7))
	t.Logf("point SELECT: %v allocations", got)
	if got > want {
		t.Fatalf("point SELECT makes %v allocations, want at most %v", got, want)
	}
}

// distinctRows moves the rows it drops behind the ones it keeps, so every
// array the rows held is still in exactly one slot: a Scratch refills the
// slots in place, and a shared array would make two rows one.
func TestDistinctRowsKeepsEachArrayOnce(t *testing.T) {
	var rows [][]Datum
	for _, v := range []string{"x", "x", "y", "z", "y", "x"} {
		rows = append(rows, []Datum{DString(v)})
	}
	arrays := make(map[*Datum]bool)
	for _, r := range rows {
		arrays[&r[0]] = true
	}
	kept := distinctRows(rows)
	if got := rowStrings(&Result{Rows: kept}); strings.Join(got, " ") != "x y z" {
		t.Fatalf("distinct rows %q, want x y z", got)
	}
	for _, r := range rows {
		if !arrays[&r[0]] {
			t.Fatalf("slot holds an array it did not hold before: %v", rows)
		}
		delete(arrays, &r[0])
	}
	if len(arrays) != 0 {
		t.Fatalf("%d arrays are in no slot, so two slots share one", len(arrays))
	}
}

// Release leaves a Scratch holding no value of its last statement: a short
// result's row arrays are kept, cleared, for the next SELECT to refill, and
// a result of more than keptRows rows gives up its arrays, so one large
// SELECT does not pin its rows for the rest of the connection's life.
func TestScratchReleaseKeepsNoValues(t *testing.T) {
	_, s := newTestDB(t)
	loadLineitem(t, s, 40)
	ctx := context.Background()
	var sc Scratch
	const q = "SELECT l_key, l_returnflag FROM lineitem WHERE l_key <= $1"
	zero := func() {
		t.Helper()
		for _, r := range sc.res.Rows[:cap(sc.res.Rows)] {
			for _, d := range r[:cap(r)] {
				if d != (Datum{}) {
					t.Fatalf("released scratch still holds %v", d)
				}
			}
		}
		for _, d := range sc.row[:cap(sc.row)] {
			if d != (Datum{}) {
				t.Fatalf("released decode buffer still holds %v", d)
			}
		}
	}
	res, err := s.ExecuteIn(ctx, &sc, q, []Datum{DInt(keptRows)})
	if err != nil || len(res.Rows) != keptRows {
		t.Fatalf("%d rows, err %v; want %d", len(res.Rows), err, keptRows)
	}
	sc.Release()
	zero()
	if cap(sc.res.Rows) < keptRows {
		t.Fatalf("released scratch kept %d row arrays, want the %d of a short result", cap(sc.res.Rows), keptRows)
	}
	if res, err = s.ExecuteIn(ctx, &sc, q, []Datum{DInt(40)}); err != nil || len(res.Rows) != 40 {
		t.Fatalf("%d rows, err %v; want 40", len(res.Rows), err)
	}
	sc.Release()
	zero()
	if cap(sc.res.Rows) != 0 {
		t.Fatalf("released scratch kept %d row arrays of a 40-row result", cap(sc.res.Rows))
	}
}

// A session's explicit transaction around a point SELECT parses none of its
// three texts again (a parse would lex, and lexing allocates its tokens): the
// count is that of the transaction and the read alone. It was 48 when every
// execution parsed its text and planned the SELECT.
func TestSessionTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	_, s := newTestDB(t)
	loadLineitem(t, s, 10)
	const q = "SELECT l_price FROM lineitem WHERE l_key = $1"
	ctx := context.Background()
	run := func() {
		for _, stmt := range []string{"BEGIN", q, "COMMIT"} {
			if _, err := s.Execute(ctx, stmt, DInt(7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		run()
	}
	const want = 8
	got := testing.AllocsPerRun(20, run)
	t.Logf("BEGIN, point SELECT, COMMIT: %v allocations", got)
	if got > want {
		t.Fatalf("BEGIN, point SELECT, COMMIT makes %v allocations, want at most %v", got, want)
	}
}

// BenchmarkScanAggregate is Q1 over 2 000 rows through an Executor.
func BenchmarkScanAggregate(b *testing.B) {
	exec, s := newTestDB(b)
	loadLineitem(b, s, 2000)
	p, err := exec.Prepare(q1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.ExecuteStmt(ctx, p, nil, nil, new(Scratch)); err != nil {
			b.Fatal(err)
		}
	}
}
