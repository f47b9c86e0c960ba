package sql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/mvcc"
)

// kvBatches is the number of KV batches the cluster's nodes have served.
func kvBatches(c *kvserver.Cluster) int64 {
	var n int64
	for _, node := range c.Nodes() {
		n += node.BatchCount()
	}
	return n
}

// COMMIT can fail with a conflict after some ranges took the commit batch's
// intents, and the session does not abort a transaction whose COMMIT failed:
// the commit must have removed them itself.
func TestCommitConflictLeavesNoIntents(t *testing.T) {
	c, exec, s := newTestDBOnCluster(t)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, s, "INSERT INTO acct VALUES (1, 100), (2, 100)")
	desc, err := exec.catalog.Lookup(ctx, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(appendKeyFromValues(nil, 2, desc, []Datum{DInt(2)})); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE acct SET bal = bal - 10 WHERE id = 1")
	mustExec(t, s, "UPDATE acct SET bal = bal + 10 WHERE id = 2")
	// Another session commits a newer version of row 2 underneath.
	mustExec(t, NewSession(exec, "other"), "UPDATE acct SET bal = 7 WHERE id = 2")
	_, err = s.Execute(ctx, "COMMIT")
	if !kvpb.IsConflict(err) {
		t.Fatalf("COMMIT = %v, want a write conflict", err)
	}
	if s.inTxn() {
		t.Fatal("session still in a transaction after failed COMMIT")
	}
	for _, n := range c.Nodes() {
		iks, err := mvcc.IntentKeys(n.Engine(), keys.MakeTenantSpan(2), 0)
		if err != nil || len(iks) != 0 {
			t.Fatalf("node %d after failed COMMIT: intents %v, err %v", n.ID(), iks, err)
		}
	}
	res := mustExec(t, s, "SELECT id, bal FROM acct ORDER BY id")
	if want := []string{"1,100", "2,7"}; fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("rows after failed COMMIT = %v, want %v", rowStrings(res), want)
	}
}

// Writes stay in the transaction's buffer until COMMIT, so rolling them back
// is not a KV operation.
func TestRollbackOfBufferedWritesSendsNothing(t *testing.T) {
	c, _, s := newTestDBOnCluster(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 1)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (2, 2)")
	mustExec(t, s, "UPDATE t SET b = 5 WHERE a = 1")
	before := kvBatches(c)
	mustExec(t, s, "ROLLBACK")
	if got := kvBatches(c) - before; got != 0 {
		t.Fatalf("ROLLBACK sent %d KV batches, want 0", got)
	}
	// So is the abort of a transaction poisoned by a failed statement.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (3, 3)")
	before = kvBatches(c)
	if _, err := s.Execute(context.Background(), "INSERT INTO t VALUES (4, 4), (4, 4)"); err == nil {
		t.Fatal("duplicate inside one INSERT accepted")
	}
	if got := kvBatches(c) - before; got != 0 || s.inTxn() {
		t.Fatalf("poisoned transaction: %d KV batches, in txn %v; want 0, false", got, s.inTxn())
	}
	res := mustExec(t, s, "SELECT a, b FROM t ORDER BY a")
	if want := []string{"1,1"}; fmt.Sprint(rowStrings(res)) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", rowStrings(res), want)
	}
}

// A multi-row INSERT checks its rows against each other without KV, and
// against what is stored in one batch of Gets for the whole statement.
func TestMultiRowInsertChecksDuplicatesInOneBatch(t *testing.T) {
	c, _, s := newTestDBOnCluster(t)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (3, 0)")
	for _, tc := range []struct {
		name, stmt string
		batches    int64
		ok         bool
	}{
		{"duplicate inside the statement", "INSERT INTO t VALUES (10, 0), (11, 0), (10, 1)", 0, false},
		{"duplicate of a stored row", "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0)", 1, false},
		{"duplicate of a row buffered earlier", "INSERT INTO t VALUES (6, 0), (5, 0)", 1, false},
		{"no duplicate", "INSERT INTO t VALUES (7, 0), (8, 0), (9, 0)", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustExec(t, s, "BEGIN")
			mustExec(t, s, "INSERT INTO t VALUES (5, 0)")
			before := kvBatches(c)
			_, err := s.Execute(ctx, tc.stmt)
			if (err == nil) != tc.ok || (err != nil && !strings.Contains(err.Error(), "duplicate primary key")) {
				t.Fatalf("%s = %v", tc.stmt, err)
			}
			if got := kvBatches(c) - before; got != tc.batches {
				t.Fatalf("%s took %d KV batches, want %d", tc.stmt, got, tc.batches)
			}
			if tc.ok {
				mustExec(t, s, "ROLLBACK")
			}
		})
	}
}

// Statements of an explicit transaction read what its earlier statements
// wrote, through every plan: point lookups, full scans and index lookups.
func TestExplicitTxnReadsItsBufferedWrites(t *testing.T) {
	_, _, s := newTestDBOnCluster(t)
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b INT, c STRING)")
	mustExec(t, s, "CREATE INDEX t_c ON t (c)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y')")
	check := func(q string, want ...string) {
		t.Helper()
		if got := rowStrings(mustExec(t, s, q)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v, want %v", q, got, want)
		}
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET b = b + 1 WHERE a = 1")
	mustExec(t, s, "UPDATE t SET b = b + 1 WHERE a = 1")
	check("SELECT b FROM t WHERE a = 1", "12")
	mustExec(t, s, "INSERT INTO t VALUES (3, 30, 'z')")
	check("SELECT a, b FROM t WHERE c = 'z'", "3,30")
	mustExec(t, s, "UPDATE t SET c = 'z' WHERE a = 2")
	check("SELECT a FROM t WHERE c = 'z' ORDER BY a", "2", "3")
	check("SELECT a FROM t WHERE c = 'y'")
	mustExec(t, s, "DELETE FROM t WHERE a = 1")
	check("SELECT a, b, c FROM t ORDER BY a", "2,20,z", "3,30,z")
	check("SELECT COUNT(*) FROM t WHERE b > 0", "2")
	mustExec(t, s, "COMMIT")
	check("SELECT a, b, c FROM t ORDER BY a", "2,20,z", "3,30,z")
	check("SELECT a FROM t WHERE c = 'z' ORDER BY a", "2", "3")
}
