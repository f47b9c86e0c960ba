package kvserver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// newRecoveryCluster builds a cluster with durable stores. Its ranges keep
// raftlite's fixed log retention (8 entries), so a test that wants a
// replica behind the truncation point writes more than that while it is down.
func newRecoveryCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	cheap := CostConfig{
		ReadBatchOverhead:  time.Nanosecond,
		WriteBatchOverhead: time.Nanosecond,
		ReadRequestCost:    time.Nanosecond,
		WriteRequestCost:   time.Nanosecond,
	}
	var nodes []*Node
	for i := 1; i <= n; i++ {
		nodes = append(nodes, NewNode(NodeConfig{
			ID: NodeID(i), VCPUs: 2, Cost: cheap,
			LSM: lsm.Options{Durable: lsm.NewDir(), WALSegmentSize: 4 << 10},
		}))
	}
	c, err := NewCluster(ClusterConfig{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestSplitSeedsRightGroupForLaggingReplica reproduces the split × truncation
// staleness hole: a replica that is down across a range split used to heal
// its right-span keys by replaying the parent group's pre-split log entries.
// With log truncation those entries disappear, and the split-created right
// group — born at commit zero — considered the laggard caught up, leaving its
// right-span state stale forever. SeedState makes the right group inherit the
// parent's commit and applied indexes, so the laggard reads as behind the
// truncation point and heals via snapshot.
func TestSplitSeedsRightGroupForLaggingReplica(t *testing.T) {
	c := newRecoveryCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	put := func(k keys.Key, v string) {
		t.Helper()
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, v)}}); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}

	// Seed both sides of the future split point while everyone is healthy.
	put(tenantKey(2, "a-base"), "old")
	put(tenantKey(2, "m-stale"), "old")

	// Node 3 goes dark; writes land on the surviving quorum only.
	n3, _ := c.Node(3)
	n3.SetCordoned(true)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	put(tenantKey(2, "m-stale"), "new") // the write node 3 must eventually see

	// Split while node 3 is down. The right range inherits the parent's
	// replicas, including the lagging node 3.
	if err := c.SplitAt(tenantKey(2, "m")); err != nil {
		t.Fatal(err)
	}

	// Left-span writes advance the parent group's log past node 3's applied
	// index. Ten of them outrun the 8 retained entries, so the pre-split
	// entries truncate away and log replay can no longer deliver the
	// right-span write to node 3.
	for i := 0; i < 10; i++ {
		put(tenantKey(2, fmt.Sprintf("a%02d", i)), "v")
	}

	// Node 3 revives and catches up everywhere.
	n3.SetCordoned(false)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	if err := c.CatchUpReplicas(); err != nil {
		t.Fatal(err)
	}

	// Node 3's own engine must hold the value written while it was down.
	readTs := hlc.Timestamp{WallTime: 1<<62 - 1}
	v, ok, err := mvcc.Get(n3.Engine(), tenantKey(2, "m-stale"), readTs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || string(v) != "new" {
		t.Fatalf("node 3 m-stale = %q (ok=%v), want \"new\" — right group never healed the laggard", v, ok)
	}
	if c.RaftSnapshots() == 0 {
		t.Fatal("expected at least one snapshot catch-up")
	}
	// Convergence: every replica of every range reaches its group's commit.
	for _, st := range c.ReplicaStatuses() {
		if st.Applied != st.Commit {
			t.Fatalf("range %d node %d applied %d != commit %d", st.RangeID, st.Node, st.Applied, st.Commit)
		}
	}
}

// TestRecoverNodeReadsAppliedIndexFromTable: a store flushed and compacted
// before its crash recovers with nothing to replay, so RecoverNode reads each
// range's applied index from a sorted-level sstable, not from a memtable the
// WAL refilled. The index it regresses each replica to must be exactly the
// one the replica had applied before the crash.
func TestRecoverNodeReadsAppliedIndexFromTable(t *testing.T) {
	c := newRecoveryCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		k := tenantKey(2, fmt.Sprintf("k%03d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
			t.Fatal(err)
		}
	}
	n2, _ := c.Node(2)
	n2.SetCordoned(true)
	if err := n2.Engine().Flush(); err != nil {
		t.Fatal(err)
	}
	n2.Engine().Compact()
	applied := func() map[RangeID]uint64 {
		out := map[RangeID]uint64{}
		for _, st := range c.ReplicaStatuses() {
			if st.Node == 2 {
				out[st.RangeID] = st.Applied
			}
		}
		return out
	}
	before := applied()
	if len(before) == 0 || before[1] == 0 {
		t.Fatalf("node 2 applied indexes before the crash = %v, want range 1 past 0", before)
	}
	if err := n2.Crash(0); err != nil {
		t.Fatal(err)
	}
	if m := n2.Engine().Metrics(); m.MemTableBytes != 0 || m.L0Files != 0 || m.LevelBytes == [len(m.LevelBytes)]int64{} {
		t.Fatalf("recovered store holds %d memtable bytes and %d L0 files, levels %v: want everything in sorted levels",
			m.MemTableBytes, m.L0Files, m.LevelBytes)
	}
	// RecoverNode regresses each replica to what the read returns: a read
	// that missed the key would regress it to 0.
	if err := c.RecoverNode(2); err != nil {
		t.Fatal(err)
	}
	if after := applied(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("node 2 applied indexes after RecoverNode = %v, want the pre-crash %v", after, before)
	}
}

// TestNodeCrashRecoversDurableState: killing a node's store mid-stream (torn
// unsynced tail) and recovering it preserves every acked write, and the
// replication layer reconciles the store's regressed applied index.
func TestNodeCrashRecoversDurableState(t *testing.T) {
	c := newRecoveryCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		k := tenantKey(2, fmt.Sprintf("k%03d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	n2, _ := c.Node(2)
	n2.SetCordoned(true)
	if err := n2.Crash(32); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(2); err != nil {
		t.Fatal(err)
	}
	n2.SetCordoned(false)
	if err := c.CatchUpReplicas(); err != nil {
		t.Fatal(err)
	}
	readTs := hlc.Timestamp{WallTime: 1<<62 - 1}
	for i := 0; i < 40; i++ {
		k := tenantKey(2, fmt.Sprintf("k%03d", i))
		v, ok, err := mvcc.Get(n2.Engine(), k, readTs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after crash recovery, node 2 %q = %q (ok=%v), want v%d", k, v, ok, i)
		}
	}
	for _, st := range c.ReplicaStatuses() {
		if st.Applied != st.Commit {
			t.Fatalf("range %d node %d applied %d != commit %d", st.RangeID, st.Node, st.Applied, st.Commit)
		}
	}
}
