package kvserver

import (
	"context"
	"fmt"
	"strings"
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

// newSyncPolicyCluster builds a 3-node cluster whose durable stores sync the
// WAL once bytesPerSync bytes have accumulated (0 syncs every record).
func newSyncPolicyCluster(t *testing.T, bytesPerSync int64) *Cluster {
	return newTestCluster(t, 3, func(cfg *NodeConfig) {
		cfg.LSM = lsm.Options{Durable: lsm.NewDir(), WALBytesPerSync: bytesPerSync}
	})
}

// TestNodeCrashLosesUnsyncedTail: a store crash loses what its WAL had not
// synced. Node 2's store never syncs on its own here, so the crash takes
// every command it applied and its durable applied index falls; recovery
// then replays them from the log.
func TestNodeCrashLosesUnsyncedTail(t *testing.T) {
	c := newSyncPolicyCluster(t, 1<<30)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		k := tenantKey(2, fmt.Sprintf("k%d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
			t.Fatal(err)
		}
	}
	n2, _ := c.Node(2)
	before, err := durableAppliedIndex(n2.Engine(), 1)
	if err != nil || before == 0 {
		t.Fatalf("node 2 applied index before the crash = %d, %v; want past 0", before, err)
	}
	n2.SetCordoned(true)
	if err := n2.Crash(0); err != nil {
		t.Fatal(err)
	}
	if after, err := durableAppliedIndex(n2.Engine(), 1); err != nil || after >= before {
		t.Fatalf("node 2 durable applied index %d -> %d (%v) across a crash with nothing synced", before, after, err)
	}
	if err := c.RecoverNode(2); err != nil {
		t.Fatal(err)
	}
	n2.SetCordoned(false)
	if err := c.CatchUpReplicas(); err != nil {
		t.Fatal(err)
	}
	readTs := hlc.Timestamp{WallTime: 1<<62 - 1}
	for i := 0; i < 5; i++ {
		if _, ok, err := mvcc.Get(n2.Engine(), tenantKey(2, fmt.Sprintf("k%d", i)), readTs, 0); err != nil || !ok {
			t.Fatalf("after recovery node 2 lacks k%d (%v)", i, err)
		}
	}
}

// TestCrashLeavesNoCommandHalfApplied: a command and its applied index are
// one WAL record, so wherever a crash cuts the WAL — at a sync point or
// through a torn record — each batch's writes survive on the store all
// together or not at all.
func TestCrashLeavesNoCommandHalfApplied(t *testing.T) {
	const batches, perBatch = 12, 4
	key := func(b, i int) keys.Key { return tenantKey(2, fmt.Sprintf("b%02d-k%d", b, i)) }
	// A command is a WAL record of about 280 bytes. The first one carries
	// longer values and syncs alone under the 512-byte policy; the rest pair
	// up behind it, which leaves the last one unsynced for the crash to take.
	value := func(b int) string {
		if b == 0 {
			return strings.Repeat("v", 64)
		}
		return "v"
	}
	readTs := hlc.Timestamp{WallTime: 1<<62 - 1}
	torn := 0 // crashes that kept some batches and lost others
	for _, bytesPerSync := range []int64{128, 256, 512} {
		for tear := 0; tear < 64; tear += 3 {
			c := newSyncPolicyCluster(t, bytesPerSync)
			ds := NewDistSender(c, Identity{Tenant: 2})
			for b := 0; b < batches; b++ {
				ba := &kvpb.BatchRequest{Tenant: 2}
				for i := 0; i < perBatch; i++ {
					ba.Requests = append(ba.Requests, putReq(key(b, i), value(b)))
				}
				if _, err := ds.Send(context.Background(), ba); err != nil {
					t.Fatal(err)
				}
			}
			n2, _ := c.Node(2)
			n2.SetCordoned(true)
			if err := n2.Crash(tear); err != nil {
				t.Fatal(err)
			}
			kept := 0
			for b := 0; b < batches; b++ {
				present := 0
				for i := 0; i < perBatch; i++ {
					if _, ok, err := mvcc.Get(n2.Engine(), key(b, i), readTs, 0); err != nil {
						t.Fatal(err)
					} else if ok {
						present++
					}
				}
				if present != 0 && present != perBatch {
					t.Errorf("sync every %d B, tear %d: batch %d has %d of its %d writes on the crashed store",
						bytesPerSync, tear, b, present, perBatch)
				}
				if present == perBatch {
					kept++
				}
			}
			if kept > 0 && kept < batches {
				torn++
			}
		}
	}
	if torn == 0 {
		t.Fatal("no crash kept some batches and lost others: the test cut no WAL between commands")
	}
}

// TestCommandIsOneWALSync: under a sync-every-record policy, a command with
// several writes costs each replica one WAL record, so one sync.
func TestCommandIsOneWALSync(t *testing.T) {
	c := newSyncPolicyCluster(t, 0)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	send := func(ba *kvpb.BatchRequest) {
		t.Helper()
		if _, err := ds.Send(ctx, ba); err != nil {
			t.Fatal(err)
		}
	}
	// The first write also acquires the range's lease.
	send(&kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(tenantKey(2, "warm"), "v")}})
	fsyncs := func() []int64 {
		var out []int64
		for _, n := range c.Nodes() {
			out = append(out, n.Engine().Metrics().WALFsyncs)
		}
		return out
	}
	before := fsyncs()
	ba := &kvpb.BatchRequest{Tenant: 2}
	for i := 0; i < 4; i++ {
		ba.Requests = append(ba.Requests, putReq(tenantKey(2, fmt.Sprintf("k%d", i)), "v"))
	}
	send(ba)
	for i, after := range fsyncs() {
		if d := after - before[i]; d != 1 {
			t.Errorf("node %d issued %d WAL syncs for one 4-write command, want 1", i+1, d)
		}
	}
}
