package kvserver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
)

func TestAddNodeAndNewRangePlacement(t *testing.T) {
	c := newTestCluster(t, 3)
	cheap := CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	n4 := NewNode(NodeConfig{ID: 4, VCPUs: 2, Cost: cheap})
	if err := c.AddNode(n4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(n4); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if got := len(c.Nodes()); got != 4 {
		t.Fatalf("nodes = %d", got)
	}
	// Splits inherit the parent's replicas (data stays in place), so the
	// added node starts empty; rebalancing is what shifts load onto it.
	for tid := keys.TenantID(2); tid < 10; tid++ {
		if err := c.SplitAt(keys.MakeTenantPrefix(tid)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ReplicaCounts()[4]; got != 0 {
		t.Fatalf("added node has %d replicas before any rebalance", got)
	}
	if moved := c.RebalanceReplicas(50); moved == 0 {
		t.Fatal("rebalance moved nothing onto the new node")
	}
	if got := c.ReplicaCounts()[4]; got == 0 {
		t.Fatal("added node still empty after rebalance")
	}
}

func TestMoveReplicaPreservesData(t *testing.T) {
	c := newTestCluster(t, 4)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	// Carve a tenant range and fill it.
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(keys.MakeTenantSpan(2).EndKey); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		k := tenantKey(2, fmt.Sprintf("k%02d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	desc, err := c.LookupRange(keys.MakeTenantPrefix(2))
	if err != nil {
		t.Fatal(err)
	}
	// Find a node not holding a replica.
	member := map[NodeID]bool{}
	for _, r := range desc.Replicas {
		member[r] = true
	}
	var target NodeID
	for _, n := range c.Nodes() {
		if !member[n.ID()] {
			target = n.ID()
			break
		}
	}
	if target == 0 {
		t.Fatal("no spare node")
	}
	from := desc.Replicas[0]
	if err := c.MoveReplica(desc.RangeID, from, target); err != nil {
		t.Fatal(err)
	}
	// Descriptor updated.
	desc2, _ := c.LookupRange(keys.MakeTenantPrefix(2))
	if desc2.Generation <= desc.Generation {
		t.Fatal("generation not bumped")
	}
	for _, r := range desc2.Replicas {
		if r == from {
			t.Fatal("old replica still listed")
		}
	}
	// All data readable after the move, through a fresh sender (stale
	// caches self-heal via mismatch errors).
	ds2 := NewDistSender(c, Identity{Tenant: 2})
	span := keys.MakeTenantSpan(2)
	resp, err := ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Responses[0].Rows); got != 30 {
		t.Fatalf("rows after move = %d, want 30", got)
	}
	// And writes keep working.
	if _, err := ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		putReq(tenantKey(2, "after-move"), "v")}}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveReplicaErrors(t *testing.T) {
	c := newTestCluster(t, 4)
	desc := c.Descriptors()[0]
	if err := c.MoveReplica(999, 1, 4); err == nil {
		t.Fatal("unknown range accepted")
	}
	if err := c.MoveReplica(desc.RangeID, 1, 99); err == nil {
		t.Fatal("unknown target accepted")
	}
	// Moving to an existing member fails.
	if err := c.MoveReplica(desc.RangeID, desc.Replicas[0], desc.Replicas[1]); err == nil {
		t.Fatal("move onto existing member accepted")
	}
	// Moving from a non-member fails.
	var nonMember NodeID
	member := map[NodeID]bool{}
	for _, r := range desc.Replicas {
		member[r] = true
	}
	for _, n := range c.Nodes() {
		if !member[n.ID()] {
			nonMember = n.ID()
		}
	}
	if err := c.MoveReplica(desc.RangeID, nonMember, nonMember); err == nil {
		t.Fatal("move from non-member accepted")
	}
}

func TestRebalanceReplicasEvensLoad(t *testing.T) {
	c := newTestCluster(t, 3)
	// Many ranges, all on nodes 1-3.
	for tid := keys.TenantID(2); tid < 14; tid++ {
		c.SplitAt(keys.MakeTenantPrefix(tid))
	}
	cheap := CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	c.AddNode(NewNode(NodeConfig{ID: 4, VCPUs: 2, Cost: cheap}))
	before := c.ReplicaCounts()
	if before[4] != 0 {
		t.Fatalf("node 4 unexpectedly has %d replicas", before[4])
	}
	moved := c.RebalanceReplicas(50)
	if moved == 0 {
		t.Fatal("no rebalancing happened")
	}
	after := c.ReplicaCounts()
	if after[4] == 0 {
		t.Fatal("node 4 still empty after rebalance")
	}
	var max, min int
	min = 1 << 30
	for _, n := range c.Nodes() {
		cnt := after[n.ID()]
		if cnt > max {
			max = cnt
		}
		if cnt < min {
			min = cnt
		}
	}
	if max-min > 2 {
		t.Fatalf("unbalanced after rebalance: %v", after)
	}
}

func TestRebalanceReplicasPicksLowestRangeID(t *testing.T) {
	c := newConfiguredCluster(t, 3, ClusterConfig{}, nil)
	if err := c.SplitAt(keys.MakeTenantPrefix(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(keys.MakeTenantPrefix(4)); err != nil {
		t.Fatal(err)
	}
	cheap := CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	if err := c.AddNode(NewNode(NodeConfig{ID: 4, VCPUs: 2, Cost: cheap})); err != nil {
		t.Fatal(err)
	}
	if moves := c.RebalanceReplicas(1); moves != 1 {
		t.Fatalf("RebalanceReplicas moved %d, want 1", moves)
	}
	// Every range is movable, so the lowest RangeID is the one that moved.
	for _, rs := range c.rangesByID() {
		id := rs.desc.Load().RangeID
		if moved := hasReplica(rs, 4); moved != (id == 1) {
			t.Fatalf("range %d has a replica on node 4: %v, want only range 1 moved", id, moved)
		}
	}
}

func TestAggregatesSurviveSplitMoveMergeDrain(t *testing.T) {
	c := newConfiguredCluster(t, 4, ClusterConfig{}, nil)
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(tenantKey(2, "m")); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(keys.MakeTenantPrefix(3)); err != nil {
		t.Fatal(err)
	}

	// Merge the two tenant-2 ranges back.
	if did, err := c.MergeAt(keys.MakeTenantPrefix(2)); err != nil || !did {
		t.Fatalf("merge = (%v, %v)", did, err)
	}

	// Drain every replica off node 2.
	if err := c.DrainNodeReplicas(2); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaCounts()[2]; got != 0 {
		t.Fatalf("node 2 still has %d replicas after drain", got)
	}
	assertDirectoryPartitions(t, c)

	// After a tick every range, moved or merged, has a live leaseholder.
	c.Tick()
	for _, r := range c.RangeLoads() {
		if r.Leaseholder == 0 || r.Leaseholder == 2 {
			t.Fatalf("range %d: leaseholder %d after the drain and a tick", r.RangeID, r.Leaseholder)
		}
	}
}

// TestMovedRangeKeepsFaultSites checks that the replication group MoveReplica
// rebuilds consults the cluster's fault sites like every other group: an
// armed raftlite.propose.err must fail a write to the moved range.
func TestMovedRangeKeepsFaultSites(t *testing.T) {
	reg := faultinject.New(1, nil)
	c := newConfiguredCluster(t, 4, ClusterConfig{Faults: reg}, nil)
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(keys.MakeTenantSpan(2).EndKey); err != nil {
		t.Fatal(err)
	}
	desc, err := c.LookupRange(keys.MakeTenantPrefix(2))
	if err != nil {
		t.Fatal(err)
	}
	var target NodeID
	for _, n := range c.Nodes() {
		if !hasReplica(c.rangeByID(desc.RangeID), n.ID()) {
			target = n.ID()
		}
	}
	if err := c.MoveReplica(desc.RangeID, desc.Replicas[0], target); err != nil {
		t.Fatal(err)
	}

	reg.Enable("raftlite.propose.err", faultinject.Site{Probability: 1, MaxFires: 1})
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	put := &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(tenantKey(2, "k"), "v")}}
	if _, err := ds.Send(ctx, put); !faultinject.IsInjected(err) {
		t.Fatalf("write to the moved range with raftlite.propose.err armed = %v, want the injected fault", err)
	}
	// The site fired its one fault; the next write goes through.
	if _, err := ds.Send(ctx, put); err != nil {
		t.Fatal(err)
	}
}

func TestDrainAndRemoveNode(t *testing.T) {
	c := newTestCluster(t, 4)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for tid := keys.TenantID(2); tid < 8; tid++ {
		c.SplitAt(keys.MakeTenantPrefix(tid))
	}
	k := tenantKey(2, "durable")
	ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}})

	// RemoveNode refuses while replicas remain.
	if err := c.RemoveNode(4); err == nil && c.ReplicaCounts()[4] > 0 {
		t.Fatal("remove with replicas accepted")
	}
	if err := c.DrainNodeReplicas(4); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaCounts()[4]; got != 0 {
		t.Fatalf("node 4 still has %d replicas", got)
	}
	if err := c.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("nodes after remove = %d", got)
	}
	if err := c.RemoveNode(4); err == nil {
		t.Fatal("double remove accepted")
	}
	// Data still there.
	ds2 := NewDistSender(c, Identity{Tenant: 2})
	resp, err := ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(k)}})
	if err != nil || !resp.Responses[0].Exists {
		t.Fatalf("data lost after node removal: %v", err)
	}
}
