package txn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

func newTestSetup(t *testing.T) (*kvserver.Cluster, *Coordinator) {
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
	return c, NewCoordinatorForDistSender(ds, c)
}

func k(s string) keys.Key {
	return append(keys.MakeTenantPrefix(2), []byte(s)...)
}

func TestTxnCommitMakesWritesVisible(t *testing.T) {
	c, coord := newTestSetup(t)
	ctx := context.Background()

	t1 := coord.Begin()
	if err := t1.Put(ctx, k("a"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// The writer reads its own buffered write.
	v, ok, err := t1.Get(ctx, k("a"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("own read = %q %v %v", v, ok, err)
	}
	// A second transaction does not: the write is still in t1's buffer, so
	// it reads the old state and meets no intent.
	t2 := coord.Begin()
	if _, ok, err := t2.Get(ctx, k("a")); err != nil || ok {
		t.Fatalf("pre-commit foreign read: ok=%v err=%v", ok, err)
	}
	// That read happened above t1's timestamp, so t1's write can no longer
	// land below it: the conflict surfaces at commit, and leaves nothing
	// behind.
	var wto *kvpb.WriteTooOldError
	if err := t1.Commit(ctx); !errors.As(err, &wto) {
		t.Fatalf("commit under a later read = %v, want WriteTooOldError", err)
	}
	assertNoIntents(t, c)
	if _, ok, err := t2.Get(ctx, k("a")); err != nil || ok {
		t.Fatalf("read after failed commit: ok=%v err=%v", ok, err)
	}
	if err := t2.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Unopposed, the same write commits, and a fresh transaction sees it.
	t3 := coord.Begin()
	if err := t3.Put(ctx, k("a"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	t4 := coord.Begin()
	v, ok, err = t4.Get(ctx, k("a"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("post-commit read = %q %v %v", v, ok, err)
	}
	t4.Abort(ctx)
}

func TestTxnAbortRemovesIntents(t *testing.T) {
	c, coord := newTestSetup(t)
	ctx := context.Background()
	// A transaction that only buffered has nothing to remove, and sends
	// nothing.
	before := batchCount(c)
	t1 := coord.Begin()
	t1.Put(ctx, k("a"), []byte("doomed"))
	if err := t1.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if got := batchCount(c); got != before {
		t.Fatalf("aborting buffered writes sent %d KV batches", got-before)
	}
	// A direct one (the DeleteRange ends buffering) laid down intents.
	t2 := coord.Begin()
	t2.Put(ctx, k("a"), []byte("doomed"))
	if _, err := t2.Send(ctx, kvpb.Request{Method: kvpb.DeleteRange, Key: k("x"), EndKey: k("y")}); err != nil {
		t.Fatal(err)
	}
	t2.Put(ctx, k("b"), []byte("doomed"))
	if n := intentCount(t, c); n != 2 {
		t.Fatalf("direct transaction left %d intents, want 2 (a and b)", n)
	}
	if err := t2.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	assertNoIntents(t, c)
	t3 := coord.Begin()
	for _, key := range []keys.Key{k("a"), k("b")} {
		if _, ok, err := t3.Get(ctx, key); err != nil || ok {
			t.Fatalf("read %s after abort = ok=%v err=%v", key, ok, err)
		}
	}
	t3.Abort(ctx)
}

// batchCount is the number of KV batches the cluster's nodes have served.
func batchCount(c *kvserver.Cluster) int64 {
	var n int64
	for _, node := range c.Nodes() {
		n += node.BatchCount()
	}
	return n
}

func TestTxnFinishedRejectsFurtherOps(t *testing.T) {
	_, coord := newTestSetup(t)
	ctx := context.Background()
	t1 := coord.Begin()
	t1.Put(ctx, k("a"), []byte("v"))
	t1.Commit(ctx)
	if err := t1.Put(ctx, k("b"), []byte("v")); err != ErrTxnFinished {
		t.Fatalf("put after commit = %v", err)
	}
	// Commit after commit is a no-op; commit after abort errors.
	if err := t1.Commit(ctx); err != nil {
		t.Fatalf("double commit = %v", err)
	}
	t2 := coord.Begin()
	t2.Abort(ctx)
	if err := t2.Commit(ctx); err == nil {
		t.Fatal("commit after abort should error")
	}
	if err := t2.Abort(ctx); err != nil {
		t.Fatalf("double abort = %v", err)
	}
}

func TestTxnScan(t *testing.T) {
	_, coord := newTestSetup(t)
	ctx := context.Background()
	setup := coord.Begin()
	for i := 0; i < 5; i++ {
		setup.Put(ctx, k(fmt.Sprintf("s%d", i)), []byte("v"))
	}
	if err := setup.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	t1 := coord.Begin()
	rows, err := t1.Scan(ctx, keys.MakeTenantSpan(2), 0)
	if err != nil || len(rows) != 5 {
		t.Fatalf("scan = %d rows, %v", len(rows), err)
	}
	t1.Abort(ctx)
}

func TestRunTxnRetriesConflicts(t *testing.T) {
	_, coord := newTestSetup(t)
	ctx := context.Background()

	// Seed a counter.
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		return tx.Put(ctx, k("counter"), []byte{0})
	}); err != nil {
		t.Fatal(err)
	}

	// Concurrent read-modify-write increments; all must succeed and the
	// final value must equal the increment count (atomicity under retry).
	const workers = 4
	const perWorker = 5
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
					v, _, err := tx.Get(ctx, k("counter"))
					if err != nil {
						return err
					}
					return tx.Put(ctx, k("counter"), []byte{v[0] + 1})
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var final byte
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		v, _, err := tx.Get(ctx, k("counter"))
		if err == nil {
			final = v[0]
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if final != workers*perWorker {
		t.Fatalf("counter = %d, want %d", final, workers*perWorker)
	}
}

func TestRunTxnNonRetriableErrorSurfaces(t *testing.T) {
	_, coord := newTestSetup(t)
	sentinel := errors.New("application error")
	err := coord.RunTxn(context.Background(), func(ctx context.Context, tx *Txn) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTxnAbortsOnError(t *testing.T) {
	_, coord := newTestSetup(t)
	ctx := context.Background()
	sentinel := errors.New("fail after write")
	coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		tx.Put(ctx, k("x"), []byte("v"))
		return sentinel
	})
	// The write must be gone: a read succeeds and finds nothing.
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		_, ok, err := tx.Get(ctx, k("x"))
		if err != nil {
			return err
		}
		if ok {
			return errors.New("aborted write visible")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTxnIDsUnique(t *testing.T) {
	_, coord := newTestSetup(t)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		tx := coord.Begin()
		if seen[tx.ID()] {
			t.Fatalf("duplicate txn id %d", tx.ID())
		}
		seen[tx.ID()] = true
		tx.Abort(context.Background())
	}
}

func TestTxnDeleteCommit(t *testing.T) {
	_, coord := newTestSetup(t)
	ctx := context.Background()
	coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error { return tx.Put(ctx, k("d"), []byte("v")) })
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error { return tx.Delete(ctx, k("d")) }); err != nil {
		t.Fatal(err)
	}
	coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		_, ok, err := tx.Get(ctx, k("d"))
		if err != nil {
			return err
		}
		if ok {
			return errors.New("deleted key visible")
		}
		return nil
	})
}

func TestNoLostUpdateUnderConcurrency(t *testing.T) {
	// The classic bank-transfer invariant: concurrent transfers between two
	// accounts must conserve the total. Without the KV layer's timestamp
	// cache, a write can land below another transaction's completed read
	// and silently lose an update.
	_, coord := newTestSetup(t)
	ctx := context.Background()
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		if err := tx.Put(ctx, k("acct-a"), []byte{100}); err != nil {
			return err
		}
		return tx.Put(ctx, k("acct-b"), []byte{100})
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const transfers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, dst := k("acct-a"), k("acct-b")
			if w%2 == 1 {
				src, dst = dst, src
			}
			for i := 0; i < transfers; i++ {
				err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
					sv, _, err := tx.Get(ctx, src)
					if err != nil {
						return err
					}
					dv, _, err := tx.Get(ctx, dst)
					if err != nil {
						return err
					}
					if sv[0] == 0 {
						return nil // insufficient funds; skip
					}
					if err := tx.Put(ctx, src, []byte{sv[0] - 1}); err != nil {
						return err
					}
					return tx.Put(ctx, dst, []byte{dv[0] + 1})
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var total int
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		a, _, err := tx.Get(ctx, k("acct-a"))
		if err != nil {
			return err
		}
		b, _, err := tx.Get(ctx, k("acct-b"))
		if err != nil {
			return err
		}
		total = int(a[0]) + int(b[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 200 {
		t.Fatalf("invariant violated: total = %d, want 200 (lost update)", total)
	}
}

func TestRunTxnRetryAppearsAsSpanEvent(t *testing.T) {
	_, coord := newTestSetup(t)
	tr := trace.New(trace.Options{Clock: timeutil.NewRealClock(), Seed: 1})
	root := tr.StartRoot("test")
	ctx := trace.ContextWithSpan(context.Background(), root)

	attempts := 0
	err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		attempts++
		if attempts == 1 {
			return &kvpb.WriteTooOldError{}
		}
		return tx.Put(ctx, k("retry-key"), []byte("v"))
	})
	root.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	children := root.Children()
	if len(children) == 0 || children[0].Op() != "txn.run" {
		t.Fatalf("txn.run span missing under root: %+v", children)
	}
	sp := children[0]
	var sawRetry, sawCommit bool
	for _, ev := range sp.Events() {
		if strings.Contains(ev.Msg, "retry attempt=1") {
			sawRetry = true
		}
		if strings.HasPrefix(ev.Msg, "commit txn=") {
			sawCommit = true
		}
	}
	if !sawRetry {
		t.Fatalf("no retry event on txn.run span; events = %+v", sp.Events())
	}
	if !sawCommit {
		t.Fatalf("no commit event on txn.run span; events = %+v", sp.Events())
	}
	if v, ok := sp.Attr("txn.attempts"); !ok || v.(int) != 2 {
		t.Fatalf("txn.attempts attr = %v ok=%v, want 2", v, ok)
	}
}
