package sql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/rowfilter"
	"crdbserverless/internal/txn"
)

// newPushdownDB builds a DB with the row decoder registered and pushdown on.
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
	c.SetRowDecoder(KVRowDecoder())
	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	coord := txn.NewCoordinator(ds, c.Clock(), 2)
	catalog := NewCatalog(coord, 2)
	exec := NewExecutor(catalog, coord, ExecutorConfig{FilterPushdown: pushdown})
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
	plainBefore := execPlain.RowsProcessed()
	mustExec(t, plain, q)
	plainRows := execPlain.RowsProcessed() - plainBefore

	pushedBefore := execPushed.RowsProcessed()
	mustExec(t, pushed, q)
	pushedRows := execPushed.RowsProcessed() - pushedBefore

	if pushedRows >= plainRows {
		t.Fatalf("pushdown processed %d rows vs %d without — no reduction", pushedRows, plainRows)
	}
	if pushedRows > 5 {
		t.Fatalf("pushdown returned %d rows for a 1-row predicate", pushedRows)
	}
}

func TestPushdownWithoutDecoderFailsOpen(t *testing.T) {
	// A cluster without a registered decoder ignores the filter; results
	// are still correct because SQL re-applies the predicate.
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	n1 := kvserver.NewNode(kvserver.NodeConfig{ID: 1, VCPUs: 2, Cost: cheap})
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{}, []*kvserver.Node{n1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	coord := txn.NewCoordinator(ds, c.Clock(), 2)
	exec := NewExecutor(NewCatalog(coord, 2), coord, ExecutorConfig{FilterPushdown: true})
	s := NewSession(exec, "app")
	loadFilterTable(t, s, 20)
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE b >= 100")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("count = %d, want 10", res.Rows[0][0].I)
	}
}

func TestCompilePushdownFilter(t *testing.T) {
	desc := &TableDescriptor{
		Name:    "t",
		Columns: []ColumnDef{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeString}},
	}
	// Eligible: a > 5 AND b = 'x'.
	stmt, err := Parse("SELECT a FROM t WHERE a > 5 AND b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	enc := compilePushdownFilter(desc, stmt.(*Select).Where, nil)
	if enc == nil {
		t.Fatal("no filter compiled")
	}
	f, err := rowfilter.Decode(enc)
	if err != nil || len(f.Conds) != 2 {
		t.Fatalf("filter = %+v, %v", f, err)
	}
	// Ineligible: OR at the top, function calls, column-to-column.
	for _, q := range []string{
		"SELECT a FROM t WHERE a > 5 OR b = 'x'",
		"SELECT a FROM t WHERE a + 1 > 5",
		"SELECT a FROM t WHERE a = a",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if enc := compilePushdownFilter(desc, stmt.(*Select).Where, nil); enc != nil {
			t.Fatalf("%s compiled a filter", q)
		}
	}
	// Placeholders are constants.
	stmt, _ = Parse("SELECT a FROM t WHERE a <= $1")
	enc = compilePushdownFilter(desc, stmt.(*Select).Where, []Datum{DInt(9)})
	f, _ = rowfilter.Decode(enc)
	if len(f.Conds) != 1 || f.Conds[0].Value.I != 9 || f.Conds[0].Op != rowfilter.OpLe {
		t.Fatalf("placeholder filter = %+v", f)
	}
	// Flipped constant-on-left comparisons.
	stmt, _ = Parse("SELECT a FROM t WHERE 5 < a")
	f, _ = rowfilter.Decode(compilePushdownFilter(desc, stmt.(*Select).Where, nil))
	if len(f.Conds) != 1 || f.Conds[0].Op != rowfilter.OpGt {
		t.Fatalf("flipped filter = %+v", f)
	}
	_ = context.Background()
}
