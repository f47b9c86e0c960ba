package kvscaler

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/timeutil"
)

func cheapNode(id kvserver.NodeID, clock timeutil.Clock) *kvserver.Node {
	return kvserver.NewNode(kvserver.NodeConfig{
		ID:    id,
		VCPUs: 2,
		Clock: clock,
		Cost: kvserver.CostConfig{
			ReadBatchOverhead:  time.Nanosecond,
			WriteBatchOverhead: time.Nanosecond,
			// Inflated so a modest batch volume saturates the simulated
			// fleet (busy time is accounted, not slept, on manual clocks).
			WriteByteCost: 8 * time.Microsecond,
		},
	})
}

type fixture struct {
	cluster *kvserver.Cluster
	clock   *timeutil.ManualClock
	scaler  *Scaler
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, cheapNode(kvserver.NodeID(i), clock))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{Clock: clock}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Several ranges so rebalancing has something to move.
	for tid := keys.TenantID(2); tid < 10; tid++ {
		if err := c.SplitAt(keys.MakeTenantPrefix(tid)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{
		Cluster:     c,
		Clock:       clock,
		Provisioner: func(id kvserver.NodeID) *kvserver.Node { return cheapNode(id, clock) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cluster: c, clock: clock, scaler: s}
}

// driveLoad pushes real KV traffic so CPUBusy advances; with a manual clock
// the executor accounts (but does not block on) service time, so busy time
// accrues relative to wall advancement controlled here.
func (f *fixture) driveLoad(t *testing.T, heavy bool, ticks int) {
	t.Helper()
	ds := kvserver.NewDistSender(f.cluster, kvserver.Identity{Tenant: 2})
	ctx := context.Background()
	i := 0
	for tick := 0; tick < ticks; tick++ {
		if heavy {
			// Enough batches that accounted busy time outruns the 5s of
			// wall time each tick advances: 8KiB * 8µs/B ≈ 65ms per batch,
			// 400 batches ≈ 26s of busy time per 5s tick.
			for j := 0; j < 400; j++ {
				i++
				k := append(keys.MakeTenantPrefix(2), []byte(fmt.Sprintf("k%06d", i%512))...)
				if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
					{Method: kvpb.Put, Key: k, Value: make([]byte, 8<<10)},
				}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.clock.Advance(5 * time.Second)
		if _, err := f.scaler.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScalerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing cluster accepted")
	}
}

func TestScalerAddsNodeUnderLoad(t *testing.T) {
	f := newFixture(t)
	before := len(f.cluster.Nodes())
	f.driveLoad(t, true, 12)
	after := len(f.cluster.Nodes())
	if after <= before {
		t.Fatalf("fleet did not grow under load: %d -> %d (util %.2f)",
			before, after, f.scaler.Utilization())
	}
	// Replicas were rebalanced onto the new node(s).
	counts := f.cluster.ReplicaCounts()
	grew := false
	for _, n := range f.cluster.Nodes() {
		if n.ID() > 3 && counts[n.ID()] > 0 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no replicas moved to added nodes: %v", counts)
	}
}

func TestScalerRemovesIdleNode(t *testing.T) {
	f := newFixture(t)
	// Grow to 4 nodes first.
	f.driveLoad(t, true, 12)
	if len(f.cluster.Nodes()) < 4 {
		t.Skipf("fleet did not grow; util %.2f", f.scaler.Utilization())
	}
	// Then go idle long enough for the window average to collapse.
	f.driveLoad(t, false, 30)
	if got := len(f.cluster.Nodes()); got != 3 {
		t.Fatalf("fleet did not shrink to min: %d nodes (util %.2f)",
			got, f.scaler.Utilization())
	}
	// Never below the minimum.
	f.driveLoad(t, false, 20)
	if got := len(f.cluster.Nodes()); got < 3 {
		t.Fatalf("fleet below minimum: %d", got)
	}
}

func TestScalerCooldownPreventsFlapping(t *testing.T) {
	f := newFixture(t)
	clockActions := 0
	f.driveLoad(t, true, 2) // 10s: at most one action within the cooldown
	for _, n := range f.cluster.Nodes() {
		if n.ID() > 3 {
			clockActions++
		}
	}
	if clockActions > 1 {
		t.Fatalf("%d add actions within one cooldown window", clockActions)
	}
}

func TestScalerDataSurvivesScaleCycle(t *testing.T) {
	f := newFixture(t)
	ds := kvserver.NewDistSender(f.cluster, kvserver.Identity{Tenant: 2})
	ctx := context.Background()
	k := append(keys.MakeTenantPrefix(2), []byte("precious")...)
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Put, Key: k, Value: []byte("v")},
	}}); err != nil {
		t.Fatal(err)
	}
	f.driveLoad(t, true, 12)  // grow
	f.driveLoad(t, false, 30) // shrink back
	ds2 := kvserver.NewDistSender(f.cluster, kvserver.Identity{Tenant: 2})
	resp, err := ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: k},
	}})
	if err != nil || !resp.Responses[0].Exists || string(resp.Responses[0].Value) != "v" {
		t.Fatalf("data lost across scale cycle: %v", err)
	}
}
