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

// BenchmarkKVBatchGet8Ranges measures a 64-request Get batch spread across 8
// ranges under both fan-out modes; each sub-batch costs ~5ms of executor
// time, so the benchmark reflects dispatch overlap, not Go overhead.
func BenchmarkKVBatchGet8Ranges(b *testing.B) {
	for _, mode := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel", DefaultParallelism},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c, want := newFanoutCluster(b)
			ds := NewDistSender(c, Identity{Tenant: 2}, Config{Parallelism: mode.parallelism})
			ba := batchOf64Gets(want)
			ctx := context.Background()
			// Warm the descriptor cache so the measurement is dispatch only.
			if _, err := ds.Send(ctx, ba); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ds.Send(ctx, ba); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVScanMultiRange measures a full-keyspace scan crossing 8 ranges
// (the iterative continuation walk) with cheap per-request costs.
func BenchmarkKVScanMultiRange(b *testing.B) {
	c := newTestCluster(b, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	want := loadKeys(b, ds, 64)
	splitTenantKeyspace(b, c, want[8], want[16], want[24], want[32], want[40], want[48], want[56])
	span := keys.MakeTenantSpan(2)
	ba := &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ds.Send(ctx, ba)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Responses[0].Rows) != 64 {
			b.Fatalf("scan rows = %d, want 64", len(resp.Responses[0].Rows))
		}
	}
}

// BenchmarkKVPutThroughput measures single-key write dispatch.
func BenchmarkKVPutThroughput(b *testing.B) {
	c := newTestCluster(b, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := tenantKey(2, fmt.Sprintf("bench-%06d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(k, "v")}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVTickIdleFleet measures Cluster.Tick over an idle fleet of 400
// and 4 000 tenant ranges on 3 nodes. A manual clock advances 3 s per tick,
// the documented tick cadence, so every tick renews the leases that reached
// half their duration. Timing starts after 60 settling ticks, once the lease
// transfers that follow the tenant splits are over.
func BenchmarkKVTickIdleFleet(b *testing.B) {
	for _, tenants := range []int{400, 4000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			mc := timeutil.NewManualClock(time.Unix(10_000, 0))
			c := newConfiguredCluster(b, 3, ClusterConfig{}, mc)
			c.Tick()
			for tid := keys.TenantID(2); tid < keys.TenantID(2+tenants); tid++ {
				if err := c.SplitAt(keys.MakeTenantPrefix(tid)); err != nil {
					b.Fatal(err)
				}
			}
			tick := func() {
				mc.Advance(3 * time.Second)
				c.Tick()
			}
			for i := 0; i < 60; i++ {
				tick()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/tick")
		})
	}
}
