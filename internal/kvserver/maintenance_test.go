package kvserver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
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

// TestTickRenewsEveryLeaseAtHalfLife checks the tick's lease upkeep against
// the leases the replication groups hold: a new range gets a lease, traffic
// alone extends nothing, and a lease with half its duration left is extended
// by the next tick and then left alone until it is due again.
func TestTickRenewsEveryLeaseAtHalfLife(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(10_000, 0))
	c := newConfiguredCluster(t, 3, ClusterConfig{LeaseDuration: 10 * time.Second}, mc)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := c.SplitAt(tenantKey(2, fmt.Sprintf("s%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	expirations := func() map[RangeID]time.Time {
		out := make(map[RangeID]time.Time)
		for _, rs := range c.rangesByID() {
			out[rs.desc.Load().RangeID] = rs.group.Load().Lease().Expiration
		}
		return out
	}
	// moved counts the ranges whose expiration differs from prev, and checks
	// that each of them now expires at now+10s.
	moved := func(prev map[RangeID]time.Time) (int, map[RangeID]time.Time) {
		t.Helper()
		cur := expirations()
		n := 0
		for id, exp := range cur {
			if exp.Equal(prev[id]) {
				continue
			}
			n++
			if want := mc.Now().Add(10 * time.Second); !exp.Equal(want) {
				t.Fatalf("range %d: lease expires at %v, want %v", id, exp, want)
			}
		}
		return n, cur
	}

	exp := expirations()
	ranges := len(exp)
	c.Tick()
	n, exp := moved(exp)
	if n != ranges {
		t.Fatalf("first tick granted %d of %d ranges a lease", n, ranges)
	}
	// Traffic on a few ranges leaves nothing for the tick to do.
	for i := 0; i < 20; i++ {
		k := tenantKey(2, fmt.Sprintf("s%02dx", i%3))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick()
	if n, exp = moved(exp); n != 0 {
		t.Fatalf("tick after traffic moved %d lease expirations, want 0", n)
	}
	// At half the lease duration every lease is due: one tick extends each,
	// and the next extends none. The pattern repeats for as long as the
	// leases live.
	for round := 1; round <= 3; round++ {
		mc.Advance(5 * time.Second)
		c.Tick()
		if n, exp = moved(exp); n != ranges {
			t.Fatalf("renewal round %d: tick extended %d of %d leases", round, n, ranges)
		}
		c.Tick()
		if n, exp = moved(exp); n != 0 {
			t.Fatalf("renewal round %d: next tick extended %d leases, want 0", round, n)
		}
	}
}

// TestSplitLeasePileUpEvensOutThenStops pins where an idle fleet's lease
// transfers come from. Every split hands the new range its parent's
// leaseholder, so creating N tenants piles N+1 leases onto one node. The
// count pass evens them out at most maxLeaseTransfersPerTick per tick and
// then moves nothing: the transfers are a one-off burst after the splits,
// not churn. No lease lapses between ticks either; renewals at half the
// lease duration keep every range held across two lease durations.
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

func TestTenantStorageBytes(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	// Carve two tenants and fill them unevenly.
	for _, tid := range []keys.TenantID{2, 3} {
		c.SplitAt(keys.MakeTenantPrefix(tid))
		c.SplitAt(keys.MakeTenantSpan(tid).EndKey)
	}
	ds2 := NewDistSender(c, Identity{Tenant: 2})
	ds3 := NewDistSender(c, Identity{Tenant: 3})
	for i := 0; i < 10; i++ {
		ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(tenantKey(2, fmt.Sprintf("k%02d", i)), "0123456789")}})
	}
	ds3.Send(ctx, &kvpb.BatchRequest{Tenant: 3, Requests: []kvpb.Request{
		putReq(tenantKey(3, "solo"), "x")}})

	b2, err := c.TenantStorageBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := c.TenantStorageBytes(3)
	if err != nil {
		t.Fatal(err)
	}
	if b2 <= b3 || b3 == 0 {
		t.Fatalf("storage accounting: tenant2=%d tenant3=%d", b2, b3)
	}
	// Overwrites do not inflate the logical size (old versions are not
	// billed).
	before := b2
	for i := 0; i < 5; i++ {
		ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(tenantKey(2, "k00"), "0123456789")}})
	}
	after, _ := c.TenantStorageBytes(2)
	if after != before {
		t.Fatalf("logical size changed on overwrite: %d -> %d", before, after)
	}
	// Empty tenant reads as zero.
	if b, _ := c.TenantStorageBytes(99); b != 0 {
		t.Fatalf("empty tenant storage = %d", b)
	}
}
