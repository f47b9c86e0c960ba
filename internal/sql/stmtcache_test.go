package sql

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// An unqualified column both join inputs have is ambiguous: naming it fails
// before any row is read, where it once bound to the left input's column
// silently (and, in WHERE, to each input's own column in turn). Qualified
// names still work.
func TestJoinAmbiguousColumn(t *testing.T) {
	exec, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE TABLE b (id INT PRIMARY KEY, w INT)")
	mustExec(t, s, "INSERT INTO a VALUES (1, 7), (2, 8)")
	mustExec(t, s, "INSERT INTO b VALUES (2, 7), (3, 8)")
	for _, q := range []string{
		"SELECT id FROM a JOIN b ON v = w",
		"SELECT v FROM a JOIN b ON v = w WHERE id = 2",
		"SELECT v FROM a JOIN b ON id = w",
		"SELECT COUNT(*) FROM a JOIN b ON v = w GROUP BY id",
		"SELECT SUM(id) FROM a JOIN b ON v = w",
		"SELECT v FROM a JOIN b ON v = w ORDER BY id",
	} {
		before := exec.rowsProcessed()
		_, err := s.Execute(context.Background(), q)
		if err == nil || !strings.Contains(err.Error(), `column reference "id" is ambiguous`) {
			t.Errorf("%s: err = %v, want the ambiguous column reference", q, err)
		}
		if n := exec.rowsProcessed() - before; n != 0 {
			t.Errorf("%s read %d rows before failing", q, n)
		}
	}
	for q, want := range map[string]string{
		"SELECT a.id, b.id FROM a JOIN b ON v = w ORDER BY a.id":                "[1,2 2,3]",
		"SELECT a.id, b.id FROM a JOIN b ON v = w WHERE b.id = 2":               "[1,2]",
		"SELECT x.id, y.id FROM a AS x JOIN b AS y ON x.v = y.w WHERE x.id = 2": "[2,3]",
		"SELECT a.id AS id FROM a JOIN b ON v = w ORDER BY id DESC":             "[2 1]",
	} {
		if got := fmt.Sprint(rowStrings(mustExec(t, s, q))); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
	// A table joined to itself: its name is ambiguous, its aliases are not.
	if _, err := s.Execute(context.Background(), "SELECT a.v FROM a AS x JOIN a AS y ON x.id = y.v"); err == nil ||
		!strings.Contains(err.Error(), `column reference "a.v" is ambiguous`) {
		t.Errorf("self-join naming the table: err = %v", err)
	}
	mustExec(t, s, "SELECT x.v FROM a AS x JOIN a AS y ON x.id = y.v")
}

// A cached full-scan text plans again when CREATE INDEX installs a new
// descriptor, and reads through the index from then on. (Without push-down,
// so that the full scan's rows all reach the executor and tell the plans
// apart.)
func TestStmtCacheIndexPlanAfterCreateIndex(t *testing.T) {
	exec, s := newRowPathDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING, c INT)")
	for i := 0; i < 30; i++ {
		mustExec(t, s, "INSERT INTO t VALUES ($1, $2, $3)", DInt(int64(i)), DString(fmt.Sprintf("g%d", i%3)), DInt(int64(i)))
	}
	const q = "SELECT a FROM t WHERE b = 'g1'"
	read := func() int64 {
		t.Helper()
		before := exec.rowsProcessed()
		if res := mustExec(t, s, q); len(res.Rows) != 10 {
			t.Fatalf("%s returned %d rows, want 10", q, len(res.Rows))
		}
		return exec.rowsProcessed() - before
	}
	if n := read(); n != 30 {
		t.Fatalf("before the index, %s processed %d rows, want the full scan's 30", q, n)
	}
	mustExec(t, s, "CREATE INDEX t_b ON t (b)")
	if n := read(); n != 10 {
		t.Fatalf("after CREATE INDEX, %s processed %d rows, want the index plan's 10", q, n)
	}
}

// After DROP TABLE and a CREATE TABLE of the same name with its columns in
// another order and another primary key, the same text reads the new table.
func TestStmtCacheDropAndRecreate(t *testing.T) {
	exec, s := newTestDB(t)
	const q = "SELECT a, b FROM t WHERE b = 5"
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 5), (2, 6)")
	if got := fmt.Sprint(rowStrings(mustExec(t, s, q))); got != "[1,5]" {
		t.Fatalf("%s = %s, want [1,5]", q, got)
	}
	mustExec(t, s, "DROP TABLE t")
	mustExec(t, s, "CREATE TABLE t (b INT PRIMARY KEY, a INT)")
	mustExec(t, s, "INSERT INTO t VALUES (5, 40), (6, 50)")
	before := exec.rowsProcessed()
	if got := fmt.Sprint(rowStrings(mustExec(t, s, q))); got != "[40,5]" {
		t.Fatalf("after re-creating t, %s = %s, want [40,5]", q, got)
	}
	if n := exec.rowsProcessed() - before; n != 1 {
		t.Fatalf("after re-creating t, %s processed %d rows, want the point read's 1", q, n)
	}
}

// The plan is cached; the placeholder values are not. Each execution
// evaluates and coerces them again, and falls through to the full scan, with
// its error, exactly where a fresh plan would. (Without push-down, so that a
// full scan's rows all reach the executor.)
func TestStmtCachePlaceholderFallThrough(t *testing.T) {
	exec, s := newRowPathDB(t)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, "INSERT INTO t VALUES ($1, $2)", DInt(int64(i)), DString(fmt.Sprintf("v%d", i)))
	}
	run := func(q string, args ...Datum) (string, int64, error) {
		before := exec.rowsProcessed()
		res, err := s.Execute(ctx, q, args...)
		if err != nil {
			return "", exec.rowsProcessed() - before, err
		}
		return fmt.Sprint(rowStrings(res)), exec.rowsProcessed() - before, nil
	}
	const q1, q2 = "SELECT b FROM t WHERE a = $1", "SELECT b FROM t WHERE a = $2"
	for _, tc := range []struct {
		q       string
		args    []Datum
		rows    string
		scanned int64
		err     string
	}{
		{q: q1, args: []Datum{DInt(7)}, rows: "[v7]", scanned: 1},
		// A float that is not an integer cannot be a key: full scan, no row.
		{q: q1, args: []Datum{DFloat(7.5)}, rows: "[]", scanned: 20},
		{q: q1, args: []Datum{DFloat(7)}, rows: "[v7]", scanned: 1},
		{q: q1, args: []Datum{DInt(8)}, rows: "[v8]", scanned: 1},
		// $2 without a second argument: full scan, whose WHERE fails.
		{q: q2, args: []Datum{DInt(7)}, err: "sql: missing value for placeholder $2"},
		{q: q2, args: []Datum{DInt(0), DInt(9)}, rows: "[v9]", scanned: 1},
		{q: q2, args: []Datum{DInt(9)}, err: "sql: missing value for placeholder $2"},
	} {
		rows, scanned, err := run(tc.q, tc.args...)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s %v: err = %v, want %s", tc.q, tc.args, err, tc.err)
			}
			continue
		}
		if err != nil || rows != tc.rows || scanned != tc.scanned {
			t.Errorf("%s %v = %s (%d rows processed), %v; want %s (%d)", tc.q, tc.args, rows, scanned, err, tc.rows, tc.scanned)
		}
	}
}

// More distinct texts than the cache holds: it never holds more than its
// bound, and every statement still answers correctly.
func TestStmtCacheBound(t *testing.T) {
	exec, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	for i := 0; i < 300; i++ {
		q := fmt.Sprintf("SELECT b + %d FROM t WHERE a = %d", i, 1+i%3)
		if got, want := fmt.Sprint(rowStrings(mustExec(t, s, q))), fmt.Sprintf("[%d]", 10*(1+i%3)+i); got != want {
			t.Fatalf("%s = %s, want %s", q, got, want)
		}
		exec.stmts.RLock()
		n := 1 + len(exec.stmts.m) // the first text, and the map
		exec.stmts.RUnlock()
		if n > stmtCacheSize {
			t.Fatalf("after %d texts the cache holds %d, more than %d", i+1, n, stmtCacheSize)
		}
	}
}

// stmtCacheCorpus is one statement of each shape the executor runs, over
// the tables stmtCacheSchema creates.
var (
	stmtCacheSchema = []string{
		"CREATE TABLE u (id INT PRIMARY KEY, name STRING, age INT)",
		"CREATE TABLE o (oid INT PRIMARY KEY, uid INT, total FLOAT)",
		"CREATE INDEX o_uid ON o (uid)",
	}
	stmtCacheCorpus = []string{
		"INSERT INTO u VALUES ($1, 'u', 20)",
		"INSERT INTO o (oid, uid, total) VALUES ($1, 1, 2.5), ($1 + 100, 2, -1.5)",
		"SELECT name FROM u WHERE id = $1",
		"SELECT * FROM u WHERE age > 10 AND 30 >= age ORDER BY id DESC LIMIT 2",
		"SELECT oid FROM o WHERE uid = 1",
		"SELECT u.name, SUM(o.total) AS spent FROM u JOIN o ON u.id = o.uid GROUP BY u.name ORDER BY spent",
		"SELECT x.name, y.total FROM u AS x JOIN o AS y ON x.id < y.uid WHERE x.id = 1",
		"SELECT DISTINCT age FROM u WHERE NOT (age = 5) OR name = 'z'",
		"SELECT COUNT(*), MIN(total), MAX(total), AVG(total) FROM o",
		"SELECT id + 1 AS n FROM u ORDER BY n",
		"UPDATE u SET age = age + 1 WHERE id = $1",
		"UPDATE o SET total = total * 2 WHERE uid = 2",
		"DELETE FROM o WHERE oid = $1 + 100",
		"SET application_name = 'corpus'",
		"BEGIN",
		"COMMIT",
		"SHOW TABLES",
	}
)

// Executing a statement does not modify the AST its text's entry holds: after
// each shape runs twice, the cached AST still equals a fresh parse.
func TestStmtCacheASTUnchanged(t *testing.T) {
	exec, s := newTestDB(t)
	for _, q := range stmtCacheSchema {
		mustExec(t, s, q)
	}
	for i := int64(1); i <= 2; i++ {
		for _, q := range stmtCacheCorpus {
			var args []Datum
			if strings.Contains(q, "$1") {
				args = []Datum{DInt(i)}
			}
			mustExec(t, s, q, args...)
		}
	}
	for _, q := range append(stmtCacheSchema, stmtCacheCorpus...) {
		fresh, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		exec.stmts.RLock()
		p := exec.stmts.lookup(q)
		exec.stmts.RUnlock()
		if p == nil {
			t.Fatalf("%s is not cached", q)
		}
		if !reflect.DeepEqual(p.stmt, fresh) {
			t.Errorf("%s: cached AST %#v, fresh parse %#v", q, p.stmt, fresh)
		}
	}
}

// Sessions on one executor share its entries while another session changes
// the schema under them: under the race detector, no entry or plan is
// written after it is published, and once CREATE INDEX returns the shared
// text reads through the index.
func TestStmtCacheConcurrentSessions(t *testing.T) {
	exec, s := newTestDB(t)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	for i := 0; i < 30; i++ {
		mustExec(t, s, "INSERT INTO t VALUES ($1, $2)", DInt(int64(i)), DString(fmt.Sprintf("g%d", i%3)))
	}
	const (
		point = "SELECT b FROM t WHERE a = $1"
		byB   = "SELECT a FROM t WHERE b = $1"
	)
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := NewSession(exec, "app")
			for i := 0; i < 20; i++ {
				k := int64((w*20 + i) % 30)
				res, err := sess.Execute(ctx, point, DInt(k))
				if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("g%d", k%3)) {
					err = fmt.Errorf("%s %d = %v", point, k, rowStrings(res))
				}
				if err == nil {
					// Rows the backfill has not reached yet may be missing
					// from the index while it runs; the count is checked after.
					_, err = sess.Execute(ctx, byB, DString("g1"))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := NewSession(exec, "admin").Execute(ctx, "CREATE INDEX t_b ON t (b)"); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	before := exec.rowsProcessed()
	if res := mustExec(t, s, byB, DString("g1")); len(res.Rows) != 10 {
		t.Fatalf("%s returned %d rows, want 10", byB, len(res.Rows))
	}
	if n := exec.rowsProcessed() - before; n != 10 {
		t.Fatalf("after CREATE INDEX, %s processed %d rows, want the index plan's 10", byB, n)
	}
}

// A text seen before is not parsed again: looking it up allocates nothing,
// where lexing alone allocates the token slice.
func TestStmtCachePrepareSeenTextAllocatesNothing(t *testing.T) {
	exec, _ := newTestDB(t)
	const q = "SELECT l_price FROM lineitem WHERE l_key = $1"
	if _, err := exec.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := exec.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("preparing a cached text makes %v allocations, want 0", n)
	}
}
