package txn

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/mvcc"
	"crdbserverless/internal/timeutil"
)

// newFaultSetup builds a 3-node cluster whose DistSender and coordinator
// consult reg's fault sites. Sequential dispatch keeps the order in which
// sites are consulted deterministic.
func newFaultSetup(t *testing.T, reg *faultinject.Registry) (*kvserver.Cluster, *Coordinator) {
	t.Helper()
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID: kvserver.NodeID(i), VCPUs: 2, Cost: cheap,
		}))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{Faults: reg}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2},
		kvserver.Config{Faults: reg})
	coord := NewCoordinator(ds, c.Clock(), 2)
	coord.SetFaults(reg)
	return c, coord
}

// assertNoIntents fails the test if any node's engine holds an unresolved
// intent anywhere in the test tenant's keyspace.
func assertNoIntents(t *testing.T, c *kvserver.Cluster) {
	t.Helper()
	for _, n := range c.Nodes() {
		iks, err := mvcc.IntentKeys(n.Engine(), keys.MakeTenantSpan(2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(iks) != 0 {
			t.Fatalf("node %d has %d orphaned intents: %v", n.ID(), len(iks), iks)
		}
	}
}

// intentCount is the number of unresolved intents on the cluster's first node.
func intentCount(t *testing.T, c *kvserver.Cluster) int {
	t.Helper()
	iks, err := mvcc.IntentKeys(c.Nodes()[0].Engine(), keys.MakeTenantSpan(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(iks)
}

// Regression: a cross-range batch that failed after part of it applied used
// to record no intents at all — the applied sub-batches' intents were
// orphaned, permanently blocking every later reader of those keys. The
// cross-range batch is now the commit batch, and a Commit that fails cleans
// up after itself: whoever called it (a SQL COMMIT) does not Abort afterwards.
func TestAbortCleansUpPartiallyAppliedBatch(t *testing.T) {
	reg := faultinject.New(1, nil)
	c, coord := newFaultSetup(t, reg)
	ctx := context.Background()
	if err := c.SplitAt(k("m")); err != nil {
		t.Fatal(err)
	}
	// Fire once, on the batch's second per-range sub-batch: both sub-batches
	// apply server-side, but the second one's response is dropped and the
	// batch as a whole errors.
	reg.Enable("dist.subbatch.err", faultinject.Site{Probability: 1, After: 1, MaxFires: 1})

	tx := coord.begin()
	if _, err := tx.Send(ctx,
		kvpb.Request{Method: kvpb.Put, Key: k("a"), Value: []byte("v")},
		kvpb.Request{Method: kvpb.Put, Key: k("z"), Value: []byte("v")},
	); err != nil {
		t.Fatalf("buffered writes err = %v", err)
	}
	// The fault is not retriable, so the commit batch is not sent again, and
	// a response was lost, so the coordinator cannot tell what happened.
	err := tx.Commit(ctx)
	var ace *kvpb.AmbiguousCommitError
	if !faultinject.IsInjected(err) || !errors.As(err, &ace) || kvpb.IsRetriable(err) {
		t.Fatalf("commit err = %v, want a non-retriable ambiguous commit wrapping the injected fault", err)
	}
	assertNoIntents(t, c)
	// Neither range had the whole batch, so nothing was committed: both keys
	// must be readable (and absent) afterwards.
	t2 := coord.begin()
	defer t2.Abort(ctx)
	for _, key := range []keys.Key{k("a"), k("z")} {
		if _, ok, err := t2.Get(ctx, key); err != nil || ok {
			t.Fatalf("read %q after failed commit: ok=%v err=%v", key, ok, err)
		}
	}
}

// Companion regression: when a DeleteRange batch's response is lost, the
// coordinator never learns which keys were tombstoned. The span recorded
// before the send resolves them anyway, via ResolveIntentRange (the
// leaseholder enumerates the transaction's intents itself).
func TestAbortResolvesDeleteRangeIntentsBySpan(t *testing.T) {
	reg := faultinject.New(2, nil)
	c, coord := newFaultSetup(t, reg)
	ctx := context.Background()
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		for _, s := range []string{"a", "b", "c"} {
			if err := tx.Put(ctx, k(s), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	reg.Enable("txn.postsend", faultinject.Site{Probability: 1, MaxFires: 1})
	tx := coord.begin()
	_, err := tx.Send(ctx, kvpb.Request{Method: kvpb.DeleteRange, Key: k("a"), EndKey: k("d")})
	if !faultinject.IsInjected(err) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	assertNoIntents(t, c)
	// The aborted range delete must not have removed anything.
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		for _, s := range []string{"a", "b", "c"} {
			_, ok, err := tx.Get(ctx, k(s))
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("aborted DeleteRange removed key " + s)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// scriptedSender is a Sender whose failures come from a fault site; when the
// site doesn't fire it acks the batch without any backing cluster.
type scriptedSender struct {
	reg   *faultinject.Registry
	sends int
}

func (s *scriptedSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	s.sends++
	if err := s.reg.MaybeErr("test.resolve.flaky"); err != nil {
		return nil, err
	}
	return &kvpb.BatchResponse{Responses: make([]kvpb.Response, len(ba.Requests))}, nil
}

// Regression: finish used to retry intent resolution in a tight busy loop —
// no backoff, no cancellation check — re-colliding with exactly the routing
// churn that failed the previous attempt. Every retry must now be preceded
// by a clock-driven sleep.
func TestFinishBacksOffBetweenResolveAttempts(t *testing.T) {
	manual := timeutil.NewManualClock(time.Unix(10, 0))
	reg := faultinject.New(3, nil)
	sender := &scriptedSender{reg: reg}
	coord := NewCoordinator(sender, hlc.NewClock(manual), 2)
	ctx := context.Background()

	tx := coord.begin()
	if err := tx.Put(ctx, k("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The commit batch (the site's first consult) goes through; the sender
	// does not claim to have committed it, so resolution follows.
	const failures = 3
	reg.Enable("test.resolve.flaky", faultinject.Site{Probability: 1, After: 1, MaxFires: failures, Retriable: true})
	done := make(chan error, 1)
	go func() { done <- tx.Commit(ctx) }()
	// Each failed attempt must register a sleeper on the clock before the
	// next send; a tight retry loop would never produce a waiter and the
	// commit would have returned already.
	for i := 0; i < failures; i++ {
		for manual.NumWaiters() == 0 {
			select {
			case err := <-done:
				t.Fatalf("commit returned before backoff %d: %v", i, err)
			default:
				runtime.Gosched()
			}
		}
		manual.Advance(10 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := reg.Fires("test.resolve.flaky"); got != failures {
		t.Fatalf("injected %d resolve failures, want %d", got, failures)
	}
	// One send for the commit batch, then failures+1 resolve attempts.
	if want := 1 + failures + 1; sender.sends != want {
		t.Fatalf("sends = %d, want %d", sender.sends, want)
	}
}

// Regression companion: a cancelled context must end the resolve-retry loop
// promptly instead of burning the full retry budget.
func TestFinishHonorsContextCancellation(t *testing.T) {
	manual := timeutil.NewManualClock(time.Unix(10, 0))
	reg := faultinject.New(4, nil)
	coord := NewCoordinator(&scriptedSender{reg: reg}, hlc.NewClock(manual), 2)

	tx := coord.begin()
	if err := tx.Put(context.Background(), k("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Unbounded retriable failures once the commit batch is through: without
	// the ctx check the loop would run all 8 attempts and return a
	// retry-exhausted error instead.
	reg.Enable("test.resolve.flaky", faultinject.Site{Probability: 1, After: 1, Retriable: true})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tx.Commit(ctx) }()
	for manual.NumWaiters() == 0 {
		runtime.Gosched()
	}
	cancel()
	manual.Advance(time.Second) // release the sleeper into the ctx check
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
