package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"crdbserverless"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/wire"
)

// Fig7Point is the amortized per-tenant overhead at one fleet size.
type Fig7Point struct {
	Tenants        int
	BytesPerTenant int64
}

// Fig7Result reports suspended- and idle-tenant overhead (§6.2).
type Fig7Result struct {
	Suspended []Fig7Point
	Idle      []Fig7Point
	// IdleCPUPerTenant is KV CPU seconds/second per idle tenant, measured at
	// the last of Fig7Options.IdleCounts (the largest fleet by default).
	IdleCPUPerTenant float64
}

// Fig7Options size the experiment.
type Fig7Options struct {
	// SuspendedCounts are the fleet sizes measured for suspended tenants.
	SuspendedCounts []int
	// IdleCounts are the fleet sizes for idle tenants (each has a SQL node
	// with one open connection).
	IdleCounts []int
}

func (o *Fig7Options) defaults() {
	if len(o.SuspendedCounts) == 0 {
		o.SuspendedCounts = []int{50, 200, 500, 1000}
	}
	if len(o.IdleCounts) == 0 {
		o.IdleCounts = []int{5, 15, 30}
	}
}

// Fig7 reproduces §6.2: create fleets of empty tenants — suspended (no SQL
// nodes) and idle (a SQL node holding one connection, no queries) — and
// divide the total resource footprint by the tenant count. Per-tenant
// overhead falls as fixed costs amortize; idle tenants cost far more than
// suspended ones because each holds a live SQL process and session.
func Fig7(opts Fig7Options) (*Fig7Result, *Table, error) {
	opts.defaults()
	ctx := context.Background()
	res := &Fig7Result{}

	// Suspended tenants: registry records + keyspace boundaries only.
	for _, n := range opts.SuspendedCounts {
		p, err := fig7Suspended(ctx, n)
		if err != nil {
			return nil, nil, err
		}
		res.Suspended = append(res.Suspended, p)
	}
	// Idle tenants: each gets a SQL node with one open connection.
	for _, n := range opts.IdleCounts {
		p, cpu, err := fig7Idle(ctx, n)
		if err != nil {
			return nil, nil, err
		}
		res.Idle = append(res.Idle, p)
		res.IdleCPUPerTenant = cpu
	}

	table := &Table{
		Title:   "Fig 7: per-tenant overhead amortizes with fleet size (§6.2)",
		Columns: []string{"kind", "tenants", "memory/tenant"},
	}
	for _, p := range res.Suspended {
		table.Rows = append(table.Rows, []string{"suspended", fmt.Sprintf("%d", p.Tenants), fmtBytes(p.BytesPerTenant)})
	}
	for _, p := range res.Idle {
		table.Rows = append(table.Rows, []string{"idle", fmt.Sprintf("%d", p.Tenants), fmtBytes(p.BytesPerTenant)})
	}
	table.Rows = append(table.Rows, []string{"idle", "cpu/tenant",
		fmt.Sprintf("%.5f cpu-sec/sec", res.IdleCPUPerTenant)})
	return res, table, nil
}

// fig7Suspended measures n suspended tenants on a fresh deployment.
func fig7Suspended(ctx context.Context, n int) (Fig7Point, error) {
	srv, err := crdbserverless.New(crdbserverless.Options{KVNodesPerRegion: 1})
	if err != nil {
		return Fig7Point{}, err
	}
	defer srv.Close()
	base := liveHeap()
	for i := 0; i < n; i++ {
		t, err := srv.CreateTenant(ctx, fmt.Sprintf("susp-%d", i), crdbserverless.TenantOptions{})
		if err != nil {
			return Fig7Point{}, err
		}
		if err := srv.Suspend(ctx, t.Name); err != nil {
			return Fig7Point{}, err
		}
	}
	return Fig7Point{Tenants: n, BytesPerTenant: int64(liveHeap()-base) / int64(n)}, nil
}

// fig7Idle measures n idle tenants on a fresh deployment, each holding one
// pod with one open connection, and returns their memory and CPU per tenant.
// A tenant's pod comes from the warm pool, which refills in the background:
// the heap is read once the pool is back to its size, so it counts one pod
// per tenant whether the pod came warm or cold.
func fig7Idle(ctx context.Context, n int) (Fig7Point, float64, error) {
	srv, err := crdbserverless.New(crdbserverless.Options{KVNodesPerRegion: 1})
	if err != nil {
		return Fig7Point{}, 0, err
	}
	defer srv.Close()
	clock := timeutil.NewRealClock()
	orch := srv.Orchestrator("us-central1")
	warm := orch.WarmCount()
	base := liveHeap()
	kvBusyBase := kvBusy(srv.Cluster())
	for i := 0; i < n; i++ {
		node, err := newTenant(ctx, srv, fmt.Sprintf("idle-%d", i), 0)
		if err != nil {
			return Fig7Point{}, 0, err
		}
		c, err := wire.Connect(node.Addr(), map[string]string{"tenant": node.Tenant().Name})
		if err != nil {
			return Fig7Point{}, 0, err
		}
		defer c.Close()
	}
	// Let the fleet sit idle briefly and measure CPU drift.
	idleWindow := 200 * time.Millisecond
	clock.Sleep(idleWindow)
	cpu := (kvBusy(srv.Cluster()) - kvBusyBase).Seconds() / idleWindow.Seconds() / float64(n)
	for orch.WarmCount() < warm {
		clock.Sleep(time.Millisecond)
	}
	return Fig7Point{Tenants: n, BytesPerTenant: int64(liveHeap()-base) / int64(n)}, cpu, nil
}

// liveHeap is the bytes of reachable heap objects: HeapAlloc after two
// collections, the second freeing what the first one's finalizers and sweep
// released. HeapInuse would count whole spans, whose occupancy depends on
// whatever ran earlier in the process rather than on the tenants created.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
