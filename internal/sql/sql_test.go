package sql

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/region"
	"crdbserverless/internal/txn"
)

// newTestDB builds a 3-node KV cluster plus an executor/session for tenant 2.
func newTestDB(t *testing.T) (*Executor, *Session) {
	t.Helper()
	_, exec, s := newTestDBOnCluster(t)
	return exec, s
}

// newTestDBOnCluster is newTestDB for tests that also inspect the KV cluster.
func newTestDBOnCluster(t *testing.T) (*kvserver.Cluster, *Executor, *Session) {
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
	exec := NewExecutor(catalog, coord, ExecutorConfig{})
	return c, exec, NewSession(exec, "app")
}

func mustExec(t *testing.T, s *Session, q string, args ...Datum) *Result {
	t.Helper()
	res, err := s.Execute(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func rowStrings(res *Result) []string {
	var out []string
	for _, r := range res.Rows {
		var parts []string
		for _, d := range r {
			parts = append(parts, d.String())
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE users (id INT PRIMARY KEY, name STRING, age INT)")
	mustExec(t, s, "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25)")
	res := mustExec(t, s, "SELECT id, name, age FROM users ORDER BY id")
	want := []string{"1,alice,30", "2,bob,25"}
	if fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("rows = %v", rowStrings(res))
	}
	if fmt.Sprint(res.Columns) != fmt.Sprint([]string{"id", "name", "age"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x')")
	res := mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		t.Fatalf("star select = %+v", res.Rows)
	}
}

func TestWherePointLookup(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", i, i))
	}
	res := mustExec(t, s, "SELECT b FROM t WHERE a = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "v7" {
		t.Fatalf("point lookup = %v", rowStrings(res))
	}
	// Missing key.
	res = mustExec(t, s, "SELECT b FROM t WHERE a = 999")
	if len(res.Rows) != 0 {
		t.Fatalf("missing point lookup returned %v", rowStrings(res))
	}
}

func TestWhereFilters(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*10))
	}
	res := mustExec(t, s, "SELECT a FROM t WHERE b > 50 AND b <= 80 ORDER BY a")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"6", "7", "8"}) {
		t.Fatalf("filter = %v", got)
	}
	res = mustExec(t, s, "SELECT a FROM t WHERE a = 1 OR a = 10 ORDER BY a DESC")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"10", "1"}) {
		t.Fatalf("or filter = %v", got)
	}
	res = mustExec(t, s, "SELECT a FROM t WHERE NOT (a < 9) ORDER BY a")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"9", "10"}) {
		t.Fatalf("not filter = %v", got)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE orders (w INT, d INT, o INT, total FLOAT, PRIMARY KEY (w, d, o))")
	mustExec(t, s, "INSERT INTO orders VALUES (1, 2, 3, 9.5), (1, 2, 4, 1.25)")
	res := mustExec(t, s, "SELECT total FROM orders WHERE w = 1 AND d = 2 AND o = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].F != 9.5 {
		t.Fatalf("composite pk lookup = %v", rowStrings(res))
	}
	// Duplicate composite key rejected.
	if _, err := s.Execute(context.Background(), "INSERT INTO orders VALUES (1, 2, 3, 0.0)"); err == nil {
		t.Fatal("duplicate pk accepted")
	}
}

func TestAggregates(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE sales (id INT PRIMARY KEY, region STRING, amount INT)")
	mustExec(t, s, "INSERT INTO sales VALUES (1,'east',10),(2,'east',20),(3,'west',5),(4,'west',15),(5,'north',100)")
	res := mustExec(t, s, "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM sales")
	if got := rowStrings(res)[0]; got != "5,150,30,5,100" {
		t.Fatalf("aggregates = %s", got)
	}
}

func TestGroupBy(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE sales (id INT PRIMARY KEY, region STRING, amount INT)")
	mustExec(t, s, "INSERT INTO sales VALUES (1,'east',10),(2,'east',20),(3,'west',5),(4,'west',15)")
	res := mustExec(t, s, "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC")
	want := []string{"east,30", "west,20"}
	if fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("group by = %v", rowStrings(res))
	}
	if res.Columns[1] != "total" {
		t.Fatalf("alias column = %v", res.Columns)
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	res := mustExec(t, s, "SELECT COUNT(*), SUM(a) FROM t")
	if got := rowStrings(res)[0]; got != "0,NULL" {
		t.Fatalf("empty aggregate = %s", got)
	}
}

func TestJoinHash(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE users (id INT PRIMARY KEY, name STRING)")
	mustExec(t, s, "CREATE TABLE orders (oid INT PRIMARY KEY, uid INT, total INT)")
	mustExec(t, s, "INSERT INTO users VALUES (1,'alice'),(2,'bob'),(3,'carol')")
	mustExec(t, s, "INSERT INTO orders VALUES (10,1,100),(11,1,50),(12,2,75)")
	res := mustExec(t, s, "SELECT name, total FROM users JOIN orders ON id = uid ORDER BY total")
	want := []string{"alice,50", "bob,75", "alice,100"}
	if fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("join = %v", rowStrings(res))
	}
}

func TestJoinWithAliasesAndAggregate(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE u (id INT PRIMARY KEY, name STRING)")
	mustExec(t, s, "CREATE TABLE o (oid INT PRIMARY KEY, uid INT, total INT)")
	mustExec(t, s, "INSERT INTO u VALUES (1,'alice'),(2,'bob')")
	mustExec(t, s, "INSERT INTO o VALUES (10,1,100),(11,1,50),(12,2,75)")
	res := mustExec(t, s, "SELECT a.name, SUM(b.total) AS spent FROM u AS a JOIN o AS b ON a.id = b.uid GROUP BY a.name ORDER BY spent DESC")
	want := []string{"alice,150", "bob,75"}
	if fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("aliased join agg = %v", rowStrings(res))
	}
}

func TestUpdate(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	res := mustExec(t, s, "UPDATE t SET b = b + 1 WHERE a >= 2")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	got := rowStrings(mustExec(t, s, "SELECT b FROM t ORDER BY a"))
	if fmt.Sprint(got) != fmt.Sprint([]string{"10", "21", "31"}) {
		t.Fatalf("after update = %v", got)
	}
}

func TestUpdatePrimaryKeyMove(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x')")
	mustExec(t, s, "UPDATE t SET a = 9 WHERE a = 1")
	got := rowStrings(mustExec(t, s, "SELECT a, b FROM t"))
	if fmt.Sprint(got) != fmt.Sprint([]string{"9,x"}) {
		t.Fatalf("after pk update = %v", got)
	}
}

func TestDeleteRows(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(2),(3),(4)")
	res := mustExec(t, s, "DELETE FROM t WHERE a > 2")
	if res.RowsAffected != 2 {
		t.Fatalf("deleted = %d", res.RowsAffected)
	}
	got := rowStrings(mustExec(t, s, "SELECT a FROM t ORDER BY a"))
	if fmt.Sprint(got) != fmt.Sprint([]string{"1", "2"}) {
		t.Fatalf("after delete = %v", got)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	exec, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING, c INT)")
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'g%d', %d)", i, i%3, i))
	}
	mustExec(t, s, "CREATE INDEX t_b ON t (b)")
	before := exec.RowsProcessed()
	res := mustExec(t, s, "SELECT a FROM t WHERE b = 'g1' ORDER BY a")
	if len(res.Rows) != 10 {
		t.Fatalf("index lookup rows = %d", len(res.Rows))
	}
	// The index join plan should process ~10 rows, not all 30.
	if delta := exec.RowsProcessed() - before; delta > 15 {
		t.Fatalf("index plan processed %d rows; looks like a full scan", delta)
	}
	// Index maintenance: update a row's indexed column and re-query.
	mustExec(t, s, "UPDATE t SET b = 'moved' WHERE a = 1")
	res = mustExec(t, s, "SELECT a FROM t WHERE b = 'moved'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("post-update index lookup = %v", rowStrings(res))
	}
	res = mustExec(t, s, "SELECT a FROM t WHERE b = 'g1'")
	if len(res.Rows) != 9 {
		t.Fatalf("stale index entry: %d rows", len(res.Rows))
	}
	// Deletes remove index entries.
	mustExec(t, s, "DELETE FROM t WHERE a = 4")
	res = mustExec(t, s, "SELECT a FROM t WHERE b = 'g1'")
	if len(res.Rows) != 8 {
		t.Fatalf("index after delete: %d rows", len(res.Rows))
	}
}

func TestLimitAndDistinct(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1,1),(2,1),(3,2),(4,2),(5,3)")
	res := mustExec(t, s, "SELECT DISTINCT b FROM t ORDER BY b")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"1", "2", "3"}) {
		t.Fatalf("distinct = %v", got)
	}
	res = mustExec(t, s, "SELECT a FROM t ORDER BY a DESC LIMIT 2")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"5", "4"}) {
		t.Fatalf("limit = %v", got)
	}
}

func TestPlaceholders(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	mustExec(t, s, "INSERT INTO t VALUES ($1, $2)", DInt(5), DString("five"))
	res := mustExec(t, s, "SELECT b FROM t WHERE a = $1", DInt(5))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "five" {
		t.Fatalf("placeholder select = %v", rowStrings(res))
	}
	// Missing placeholder errors.
	if _, err := s.Execute(context.Background(), "SELECT b FROM t WHERE a = $1"); err == nil {
		t.Fatal("missing placeholder accepted")
	}
}

func TestPreparedStatements(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	if err := s.Prepare("ins", "INSERT INTO t VALUES ($1, $2)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.ExecutePrepared(context.Background(), "ins", DInt(int64(i)), DInt(int64(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("count = %s", res.Rows[0][0])
	}
	if _, err := s.ExecutePrepared(context.Background(), "nope"); err == nil {
		t.Fatal("unknown prepared statement accepted")
	}
	if err := s.Prepare("bad", "NOT SQL AT ALL"); err == nil {
		t.Fatal("invalid prepared statement accepted")
	}
}

func TestExplicitTransactionCommitRollback(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, s, "BEGIN")
	if !s.InTxn() {
		t.Fatal("not in txn after BEGIN")
	}
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	mustExec(t, s, "COMMIT")
	if s.InTxn() {
		t.Fatal("still in txn after COMMIT")
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t").Rows[0][0].I; got != 1 {
		t.Fatalf("count after commit = %d", got)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (2)")
	mustExec(t, s, "ROLLBACK")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t").Rows[0][0].I; got != 1 {
		t.Fatalf("count after rollback = %d", got)
	}
	// Errors on txn control.
	if _, err := s.Execute(context.Background(), "COMMIT"); err == nil {
		t.Fatal("COMMIT without txn accepted")
	}
	if _, err := s.Execute(context.Background(), "ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK without txn accepted")
	}
}

func TestSessionSettings(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "SET application_name = 'myapp'")
	if v, ok := s.Setting("application_name"); !ok || v != "myapp" {
		t.Fatalf("setting = %q %v", v, ok)
	}
}

func TestShowTablesAndDrop(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE bbb (a INT PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE aaa (a INT PRIMARY KEY)")
	res := mustExec(t, s, "SHOW TABLES")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"aaa", "bbb"}) {
		t.Fatalf("show tables = %v", got)
	}
	mustExec(t, s, "INSERT INTO aaa VALUES (1)")
	mustExec(t, s, "DROP TABLE aaa")
	if _, err := s.Execute(context.Background(), "SELECT * FROM aaa"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	res = mustExec(t, s, "SHOW TABLES")
	if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"bbb"}) {
		t.Fatalf("show tables after drop = %v", got)
	}
}

func TestSessionSerializeRestore(t *testing.T) {
	exec, s := newTestDB(t)
	secret := []byte("cluster-secret")
	mustExec(t, s, "SET app = 'x'")
	s.Prepare("q", "SELECT 1 FROM t")
	ser, err := s.Serialize(secret)
	if err != nil {
		t.Fatal(err)
	}
	if ser.RevivalToken == "" {
		t.Fatal("no revival token")
	}
	// Round trip through the wire encoding the proxy uses.
	raw, err := ser.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSerializedSession(raw)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(exec, decoded, secret)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := restored.Setting("app"); !ok || v != "x" {
		t.Fatalf("restored setting = %q %v", v, ok)
	}
	if restored.User() != "app" {
		t.Fatalf("restored user = %s", restored.User())
	}
	// Tampered token rejected.
	decoded.RevivalToken = "forged"
	if _, err := RestoreSession(exec, decoded, secret); err == nil {
		t.Fatal("forged revival token accepted")
	}
	// Wrong secret rejected.
	if _, err := RestoreSession(exec, ser, []byte("other")); err == nil {
		t.Fatal("wrong secret accepted")
	}
}

func TestSessionBusyNotSerializable(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, s, "BEGIN")
	if _, err := s.Serialize([]byte("k")); err != ErrSessionBusy {
		t.Fatalf("busy serialize = %v", err)
	}
	mustExec(t, s, "ROLLBACK")
	if _, err := s.Serialize([]byte("k")); err != nil {
		t.Fatalf("idle serialize = %v", err)
	}
}

func TestSQLInstancesRegistry(t *testing.T) {
	exec, _ := newTestDB(t)
	ctx := context.Background()
	coord := exec.coord
	for i := int64(1); i <= 3; i++ {
		r := "us-central1"
		if i == 3 {
			r = "europe-west1"
		}
		if err := RegisterInstance(ctx, coord, 2, SQLInstance{ID: i, Region: region.Region(r), Addr: fmt.Sprintf("10.0.0.%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	instances, err := ListInstances(ctx, coord, 2)
	if err != nil || len(instances) != 3 {
		t.Fatalf("instances = %v, %v", instances, err)
	}
	if err := UnregisterInstance(ctx, coord, 2, "us-central1", 1); err != nil {
		t.Fatal(err)
	}
	instances, _ = ListInstances(ctx, coord, 2)
	if len(instances) != 2 {
		t.Fatalf("after unregister = %v", instances)
	}
}

func TestSystemTableLocalities(t *testing.T) {
	aware := SystemTableLocalities{RegionAware: true, Home: "asia-southeast1"}
	if aware.Placement(SystemDescriptorTable).Locality.String() != "GLOBAL" {
		t.Fatal("descriptor should be GLOBAL when region-aware")
	}
	if aware.Placement(SystemSQLInstancesTable).Locality.String() != "REGIONAL BY ROW" {
		t.Fatal("sql_instances should be REGIONAL BY ROW when region-aware")
	}
	pinned := SystemTableLocalities{RegionAware: false, Home: "asia-southeast1"}
	p := pinned.Placement(SystemDescriptorTable)
	if p.Locality.String() != "REGIONAL BY TABLE" || p.Home != "asia-southeast1" {
		t.Fatalf("unoptimized placement = %+v", p)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"CREATE TABLE t (a INT)",                // no primary key
		"CREATE TABLE t (a INT PRIMARY KEY",     // unbalanced
		"INSERT INTO t",                         // no values
		"SELECT FROM t",                         // no exprs
		"SELECT a FROM t WHERE",                 // dangling where
		"SELECT a FROM t LIMIT x",               // bad limit
		"INSERT INTO t VALUES (1, 'unclosed)",   // bad string
		"SELECT a FROM t ORDER",                 // missing BY
		"UPDATE t SET",                          // missing assignment
		"SELECT a FROM t; SELECT b FROM t",      // trailing statement
		"CREATE TABLE t (a WIBBLE PRIMARY KEY)", // unknown type
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("parse accepted %q", q)
		}
	}
}

func TestArithmeticAndStrings(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, f FLOAT, name STRING)")
	mustExec(t, s, "INSERT INTO t VALUES (4, 2.5, 'ab')")
	res := mustExec(t, s, "SELECT a + 1, a * 2, a / 4, f * 2.0, name + 'cd' FROM t")
	if got := rowStrings(res)[0]; got != "5,8,1,5,abcd" {
		t.Fatalf("arithmetic = %s", got)
	}
	if _, err := s.Execute(context.Background(), "SELECT a / 0 FROM t"); err == nil {
		t.Fatal("division by zero accepted")
	}
}

func TestErrorInExplicitTxnAborts(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	if _, err := s.Execute(context.Background(), "INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if s.InTxn() {
		t.Fatal("failed statement should abort the txn")
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t").Rows[0][0].I; got != 0 {
		t.Fatalf("aborted txn leaked %d rows", got)
	}
}

func TestNullHandling(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t (a) VALUES (1)")
	mustExec(t, s, "INSERT INTO t VALUES (2, 5)")
	// NULL never matches comparisons.
	res := mustExec(t, s, "SELECT a FROM t WHERE b = 5")
	if len(res.Rows) != 1 {
		t.Fatalf("null comparison rows = %v", rowStrings(res))
	}
	// Aggregates skip NULLs; COUNT(*) does not.
	res = mustExec(t, s, "SELECT COUNT(*), SUM(b) FROM t")
	if got := rowStrings(res)[0]; got != "2,5" {
		t.Fatalf("null aggregate = %s", got)
	}
	// NULL in PK rejected.
	if _, err := s.Execute(context.Background(), "INSERT INTO t (b) VALUES (9)"); err == nil {
		t.Fatal("NULL pk accepted")
	}
}

func TestSQLCPUAccounting(t *testing.T) {
	exec, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	before := exec.SQLCPUSeconds()
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	mustExec(t, s, "SELECT COUNT(*) FROM t")
	if exec.SQLCPUSeconds() <= before {
		t.Fatal("no SQL CPU recorded")
	}
	if s.QueryCount() != 52 {
		t.Fatalf("query count = %d", s.QueryCount())
	}
}

// The sql.stmt attribute reads as %T less the package for every statement —
// the ones the type switch names and the ones it leaves to %T — and naming
// the common ones allocates nothing.
func TestStmtAttrMatchesTypeName(t *testing.T) {
	stmts := []Statement{
		&Select{}, &Insert{}, &Update{}, &Delete{}, &CreateTable{}, &CreateIndex{},
		&DropTable{}, &ShowTables{}, &BeginTxn{}, &CommitTxn{}, &RollbackTxn{}, &SetVar{},
	}
	for _, stmt := range stmts {
		want := strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sql.")
		if got := stmtAttr(stmt); got != any(want) {
			t.Errorf("stmtAttr(%T) = %v, want %q", stmt, got, want)
		}
	}
	var sel Statement = &Select{}
	if n := testing.AllocsPerRun(100, func() { _ = stmtAttr(sel) }); n != 0 {
		t.Errorf("stmtAttr(*Select) allocates %v objects, want 0", n)
	}
}
