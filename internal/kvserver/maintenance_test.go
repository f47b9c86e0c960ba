package kvserver

import (
	"context"
	"fmt"
	"maps"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/timeutil"
)

func TestCordonedNodeShedsLeases(t *testing.T) {
	c := newTestCluster(t, 3)
	for tid := keys.TenantID(2); tid < 8; tid++ {
		c.SplitAt(keys.MakeTenantPrefix(tid))
	}
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	counts := c.LeaseCounts()
	if counts[1] == 0 {
		t.Skip("node 1 holds no leases after balancing")
	}
	n1, _ := c.Node(1)
	n1.SetCordoned(true)
	if n1.Live() {
		t.Fatal("cordoned node reports live")
	}
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	counts = c.LeaseCounts()
	if counts[1] != 0 {
		t.Fatalf("cordoned node still holds %d leases", counts[1])
	}
	// Writes keep flowing: the surviving quorum serves.
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		putReq(tenantKey(2, "during-outage"), "v")}}); err != nil {
		t.Fatalf("write during cordon: %v", err)
	}
	// Un-cordon: the node becomes eligible again, catches up, and can
	// serve reads of data written while it was out.
	n1.SetCordoned(false)
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if !n1.Live() {
		t.Fatal("un-cordoned node not live")
	}
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		getReq(tenantKey(2, "during-outage"))}})
	if err != nil || !resp.Responses[0].Exists {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestTickLeasesRideLiveness checks the tick's lease rule against the
// leases the replication groups hold: a lease lasts while its holder is
// live, so a day of ticks with light traffic changes no lease record, and a
// holder that fails liveness loses exactly its own leases at the next tick.
func TestTickLeasesRideLiveness(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(10_000, 0))
	c := newConfiguredCluster(t, 3, ClusterConfig{}, mc)
	for i := 0; i < 4; i++ {
		if err := c.SplitAt(tenantKey(2, fmt.Sprintf("s%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	leases := func() map[RangeID]raftlite.Lease {
		out := make(map[RangeID]raftlite.Lease)
		for _, rs := range c.dir.byID() {
			out[rs.desc.RangeID] = rs.group.Lease()
		}
		return out
	}
	// The first ticks grant every range a lease and even out the split
	// burst.
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	settled := leases()
	for id, l := range settled {
		if l.Holder == 0 {
			t.Fatalf("range %d has no lease after settling", id)
		}
	}
	// Traffic on the leaseholders moves no lease either.
	ds := NewDistSender(c, Identity{Tenant: 2})
	for i := 0; i < 24*60; i++ {
		mc.Advance(time.Minute)
		c.Tick()
		if i%60 == 0 {
			k := tenantKey(2, fmt.Sprintf("s%02dx", i/60%4))
			if _, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := leases(); !maps.Equal(got, settled) {
		t.Fatalf("a day of ticks changed leases:\nbefore %v\nafter  %v", settled, got)
	}
	// Cordon the node with the fewest leases: the replica that takes them
	// over then holds no more than one lease above the third node, so the
	// count balancer has nothing to move and the tick's only lease work is
	// the lapsed holder's ranges.
	counts := c.LeaseCounts()
	victim := NodeID(1)
	for _, n := range []NodeID{2, 3} {
		if counts[n] < counts[victim] {
			victim = n
		}
	}
	if counts[victim] == 0 {
		t.Fatalf("lease counts %v: node %d holds no lease to lose", counts, victim)
	}
	n, _ := c.Node(victim)
	n.SetCordoned(true)
	c.Tick()
	for id, l := range leases() {
		before := settled[id]
		if before.Holder != victim {
			if l != before {
				t.Fatalf("range %d: lease %+v -> %+v, though node %d did not hold it", id, before, l, victim)
			}
			continue
		}
		if l.Holder == victim || l.Holder == 0 || l.Sequence != before.Sequence+1 {
			t.Fatalf("range %d: lease %+v -> %+v, want one grant away from node %d", id, before, l, victim)
		}
	}
}

// TestSplitLeasePileUpEvensOutThenStops pins where an idle fleet's lease
// transfers come from. Every split hands the new range its parent's
// leaseholder, so creating N tenants piles N+1 leases onto one node. The
// count pass evens them out at most maxLeaseTransfersPerTick per tick and
// then moves nothing: the transfers are a one-off burst after the splits,
// not churn. No lease lapses between ticks either: every holder stays live,
// so every range stays held across the 20 s of ticks.
func TestSplitLeasePileUpEvensOutThenStops(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(10_000, 0))
	c := newConfiguredCluster(t, 3, ClusterConfig{}, mc)
	c.Tick() // the first range takes its lease
	const tenants = 400
	for tid := keys.TenantID(2); tid < 2+tenants; tid++ {
		if err := c.SplitAt(keys.MakeTenantPrefix(tid)); err != nil {
			t.Fatal(err)
		}
	}
	ranges := len(c.Descriptors())
	counts := c.LeaseCounts()
	if len(counts) != 1 {
		t.Fatalf("leases after the splits = %v, want all %d on the first range's holder", counts, ranges)
	}
	// Even is ceil(ranges/3) left on the source; the rest move.
	remaining := ranges - (ranges+2)/3
	holders := func() map[RangeID]NodeID {
		out := make(map[RangeID]NodeID)
		for _, r := range c.RangeLoads() {
			out[r.RangeID] = r.Leaseholder
		}
		return out
	}
	prev := holders()
	for tick := 1; tick <= 20; tick++ {
		mc.Advance(time.Second)
		c.Tick()
		changed := 0
		for id, h := range holders() {
			if h == 0 {
				t.Fatalf("tick %d: range %d has no leaseholder", tick, id)
			}
			if h != prev[id] {
				changed++
			}
			prev[id] = h
		}
		want := min(remaining, maxLeaseTransfersPerTick)
		remaining -= want
		if changed != want {
			t.Fatalf("tick %d: %d leaseholders changed, want %d", tick, changed, want)
		}
	}
	if remaining != 0 {
		t.Fatalf("%d transfers still owed after 20 ticks", remaining)
	}
	counts = c.LeaseCounts()
	for _, n := range []NodeID{1, 2, 3} {
		if d := counts[n] - ranges/3; d < 0 || d > 1 {
			t.Fatalf("lease counts %v are not even over %d ranges", counts, ranges)
		}
	}
}

func TestClusterRunGC(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	k := tenantKey(2, "hot")
	// Build version history.
	for i := 0; i < 10; i++ {
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(k, fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	keep := c.Clock().Now()
	removed, err := c.RunGC(keep)
	if err != nil {
		t.Fatal(err)
	}
	// 9 old versions × 3 replicas.
	if removed != 27 {
		t.Fatalf("gc removed %d versions, want 27", removed)
	}
	// The newest version survives.
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(k)}})
	if err != nil || string(resp.Responses[0].Value) != "v9" {
		t.Fatalf("after gc = %q, %v", resp.Responses[0].Value, err)
	}
	// A second GC finds nothing.
	removed, err = c.RunGC(c.Clock().Now())
	if err != nil || removed != 0 {
		t.Fatalf("second gc removed %d, %v", removed, err)
	}
}
