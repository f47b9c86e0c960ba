package kvserver

import (
	"context"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/mvcc"
)

// intentCount is the number of unresolved intents in tenant 2's keyspace on
// the cluster's first node.
func intentCount(t *testing.T, c *Cluster) int {
	t.Helper()
	iks, err := mvcc.IntentKeys(c.Nodes()[0].Engine(), keys.MakeTenantSpan(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(iks)
}

func commitBatch(c *Cluster, id uint64, writes int, reqs ...kvpb.Request) *kvpb.BatchRequest {
	return &kvpb.BatchRequest{
		Tenant: 2, Txn: &kvpb.TxnMeta{ID: id, Ts: c.Clock().Now()}, TxnWrites: writes, Requests: reqs,
	}
}

// Whether a commit batch commits in one phase is the range's call, made on
// the writes it was handed. A sender working from a stale descriptor believes
// the whole batch goes to one range; what each range actually receives, once
// the batch has been clipped to its bounds, is part of it — and must land as
// intents, with Committed unset.
func TestCommitBatchDecidesFromWhatItReceived(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	a, z := tenantKey(2, "a"), tenantKey(2, "z")

	resp, err := ds.Send(ctx, commitBatch(c, 1, 2, putReq(a, "1"), putReq(z, "1")))
	if err != nil || !resp.Committed || resp.Ranges != 1 || intentCount(t, c) != 0 {
		t.Fatalf("whole batch on one range: resp %+v, err %v, %d intents; want committed by 1 range, no intents",
			resp, err, intentCount(t, c))
	}

	// The sender's cache now holds the pre-split descriptor.
	if err := c.SplitAt(tenantKey(2, "m")); err != nil {
		t.Fatal(err)
	}
	ba := commitBatch(c, 2, 2, putReq(a, "2"), putReq(z, "2"))
	resp, err = ds.Send(ctx, ba)
	if err != nil || resp.Committed || resp.Ranges != 2 || intentCount(t, c) != 2 {
		t.Fatalf("batch clipped by a stale descriptor: resp %+v, err %v, %d intents; want uncommitted, 2 ranges, 2 intents",
			resp, err, intentCount(t, c))
	}
	// A batch that claims more writes than it carries is not the whole
	// transaction either, however it was routed.
	resp, err = ds.Send(ctx, commitBatch(c, 3, 2, putReq(tenantKey(2, "b"), "3")))
	if err != nil || resp.Committed || intentCount(t, c) != 3 {
		t.Fatalf("partial batch: resp %+v, err %v, %d intents; want uncommitted, 3 intents", resp, err, intentCount(t, c))
	}
}

// The coordinator re-sends a commit batch whose response it lost. The range
// must take the second copy for what it is — no new command, Committed again —
// also once a later write sits on top, and must not take a different batch
// for it.
func TestCommitBatchReappliedIsRecognised(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	a, b := tenantKey(2, "a"), tenantKey(2, "b")
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(b, "old")}}); err != nil {
		t.Fatal(err)
	}
	applied := func() uint64 { return c.ReplicaStatuses()[0].Commit }

	ba := commitBatch(c, 1, 2, putReq(a, "v"), kvpb.Request{Method: kvpb.Delete, Key: b})
	if resp, err := ds.Send(ctx, ba); err != nil || !resp.Committed {
		t.Fatalf("first send: %+v, %v", resp, err)
	}
	before := applied()
	if resp, err := ds.Send(ctx, ba); err != nil || !resp.Committed {
		t.Fatalf("second send: %+v, %v; want committed", resp, err)
	}
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(a, "newer")}}); err != nil {
		t.Fatal(err)
	}
	if resp, err := ds.Send(ctx, ba); err != nil || !resp.Committed {
		t.Fatalf("third send, under a newer version: %+v, %v; want committed", resp, err)
	}
	if got := applied() - before; got != 1 {
		t.Fatalf("%d commands replicated, want 1 (the newer write): re-sent batches must not write", got)
	}

	// Same transaction, same timestamp, different bytes: not what was
	// applied, so the conflict stands.
	other := *ba
	other.Requests = []kvpb.Request{putReq(a, "w"), {Method: kvpb.Delete, Key: b}}
	if _, err := ds.Send(ctx, &other); !kvpb.IsConflict(err) {
		t.Fatalf("different batch at the same timestamp = %v, want a conflict", err)
	}
	// Nor is a batch of which only part is there.
	other.Requests = []kvpb.Request{putReq(a, "v"), putReq(tenantKey(2, "c"), "v")}
	if _, err := ds.Send(ctx, &other); !kvpb.IsConflict(err) {
		t.Fatalf("half-applied batch = %v, want a conflict", err)
	}
	if n := intentCount(t, c); n != 0 {
		t.Fatalf("%d intents left behind", n)
	}
}
