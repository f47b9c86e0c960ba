package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/orchestrator"
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
	// IdleCPUPerTenant is CPU seconds/second per idle tenant.
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
		tb, err := newTestbed(testbedOptions{kvNodes: 1})
		if err != nil {
			return nil, nil, err
		}
		base := liveHeap()
		for i := 0; i < n; i++ {
			t, err := tb.reg.CreateTenant(ctx, fmt.Sprintf("susp-%d", i), core.TenantOptions{})
			if err != nil {
				tb.close()
				return nil, nil, err
			}
			if err := tb.reg.Suspend(ctx, t.Name); err != nil {
				tb.close()
				return nil, nil, err
			}
		}
		after := liveHeap()
		res.Suspended = append(res.Suspended, Fig7Point{
			Tenants:        n,
			BytesPerTenant: int64(after-base) / int64(n),
		})
		tb.close()
	}

	// Idle tenants: each gets a SQL node with one open connection.
	for _, n := range opts.IdleCounts {
		tb, err := newTestbed(testbedOptions{kvNodes: 1})
		if err != nil {
			return nil, nil, err
		}
		orch, err := orchestrator.New(orchestrator.Config{
			Cluster:         tb.cluster,
			Registry:        tb.reg,
			Buckets:         tb.buckets,
			Region:          "us-central1",
			WarmPoolSize:    0,
			PreStartProcess: true,
		})
		if err != nil {
			tb.close()
			return nil, nil, err
		}
		base := liveHeap()
		var kvBusyBase time.Duration
		for _, kn := range tb.cluster.Nodes() {
			kvBusyBase += kn.CPUBusy()
		}
		var conns []*wire.Client
		for i := 0; i < n; i++ {
			t, err := tb.reg.CreateTenant(ctx, fmt.Sprintf("idle-%d", i), core.TenantOptions{})
			if err != nil {
				tb.close()
				return nil, nil, err
			}
			pod, err := orch.AssignPod(ctx, t)
			if err != nil {
				tb.close()
				return nil, nil, err
			}
			c, err := wire.Connect(pod.Node.Addr(), map[string]string{"tenant": t.Name})
			if err != nil {
				tb.close()
				return nil, nil, err
			}
			conns = append(conns, c)
		}
		// Let the fleet sit idle briefly and measure CPU drift.
		idleWindow := 200 * time.Millisecond
		tb.clock.Sleep(idleWindow)
		var kvBusy time.Duration
		for _, kn := range tb.cluster.Nodes() {
			kvBusy += kn.CPUBusy()
		}
		after := liveHeap()
		res.Idle = append(res.Idle, Fig7Point{
			Tenants:        n,
			BytesPerTenant: int64(after-base) / int64(n),
		})
		res.IdleCPUPerTenant = (kvBusy - kvBusyBase).Seconds() / idleWindow.Seconds() / float64(n)
		for _, c := range conns {
			c.Close()
		}
		orch.Close()
		tb.close()
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
