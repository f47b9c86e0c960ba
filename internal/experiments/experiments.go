// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a function returning a structured
// result plus a text rendering that mirrors the paper's rows/series;
// cmd/repro prints them and bench_test.go wraps them as benchmarks.
//
// Absolute numbers differ from the paper's GCP testbed — the substrate here
// is the simulator described in DESIGN.md — but each experiment preserves
// the paper's shape: who wins, by roughly what factor, and where the
// crossovers fall.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/server"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/txn"
)

// Table renders experiment output as aligned columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// testbed is a self-contained KV cluster + tenant registry for experiments.
type testbed struct {
	cluster *kvserver.Cluster
	reg     *core.Registry
	buckets *tenantcost.BucketServer
	clock   timeutil.Clock
	model   *tenantcost.Model
}

// testbedOptions configure newTestbed.
type testbedOptions struct {
	kvNodes   int
	vcpus     int
	cost      kvserver.CostConfig
	admission bool
	clock     timeutil.Clock
	// livenessLimit overrides the executor queue depth beyond which a node
	// fails liveness.
	livenessLimit int
	// obs, when set, receives per-tenant admission-wait observations from
	// each node's CPU queue.
	obs *tenantobs.Plane
}

func newTestbed(opts testbedOptions) (*testbed, error) {
	if opts.kvNodes == 0 {
		opts.kvNodes = 3
	}
	if opts.vcpus == 0 {
		opts.vcpus = 4
	}
	if opts.cost == (kvserver.CostConfig{}) {
		opts.cost = kvserver.DefaultCostConfig()
	}
	if opts.clock == nil {
		opts.clock = timeutil.NewRealClock()
	}
	var nodes []*kvserver.Node
	for i := 1; i <= opts.kvNodes; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID:                 kvserver.NodeID(i),
			VCPUs:              opts.vcpus,
			Clock:              opts.clock,
			Cost:               opts.cost,
			AdmissionEnabled:   opts.admission,
			LivenessQueueLimit: opts.livenessLimit,
			Obs:                opts.obs,
		}))
	}
	cluster, err := kvserver.NewCluster(kvserver.ClusterConfig{Clock: opts.clock}, nodes)
	if err != nil {
		return nil, err
	}
	cluster.SetRowDecoder(sql.KVRowDecoder())
	buckets := tenantcost.NewBucketServer(opts.clock)
	reg, err := core.NewRegistry(cluster, buckets)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	return &testbed{
		cluster: cluster,
		reg:     reg,
		buckets: buckets,
		clock:   opts.clock,
		model:   tenantcost.DefaultModel(),
	}, nil
}

func (tb *testbed) close() { tb.cluster.Close() }

// tenantHandle bundles a tenant's full SQL stack, with metering and optional
// eCPU throttling — the in-process equivalent of a SQL node.
type tenantHandle struct {
	tenant  *core.Tenant
	metered *server.MeteredSender
	exec    *sql.Executor
	bucket  *tenantcost.NodeBucket
	model   *tenantcost.Model
}

// newTenant provisions a tenant and its SQL stack. colocated selects the
// traditional deployment cost model; quotaVCPUs > 0 enables eCPU limiting.
func (tb *testbed) newTenant(ctx context.Context, name string, colocated bool, quotaVCPUs float64) (*tenantHandle, error) {
	return tb.newTenantCfg(ctx, name, sql.ExecutorConfig{Colocated: colocated}, quotaVCPUs)
}

// newTenantCfg is newTenant with full executor configuration.
func (tb *testbed) newTenantCfg(ctx context.Context, name string, cfg sql.ExecutorConfig, quotaVCPUs float64) (*tenantHandle, error) {
	t, err := tb.reg.CreateTenant(ctx, name, core.TenantOptions{QuotaVCPUs: quotaVCPUs})
	if err != nil {
		return nil, err
	}
	ds := kvserver.NewDistSender(tb.cluster, kvserver.Identity{Tenant: t.ID})
	meter := server.NewMeteredSender(colocatedSender{inner: ds, colocated: cfg.Colocated})
	coord := txn.NewCoordinator(meter, tb.cluster.Clock(), t.ID)
	catalog := sql.NewCatalog(coord, t.ID)
	exec := sql.NewExecutor(catalog, coord, cfg)
	h := &tenantHandle{
		tenant:  t,
		metered: meter,
		exec:    exec,
		model:   tb.model,
	}
	if quotaVCPUs > 0 {
		h.bucket = tenantcost.NewNodeBucket(tb.buckets, tb.clock, t.ID, 1)
	}
	return h, nil
}

// session returns a fresh session on the tenant's executor.
func (h *tenantHandle) session() *sql.Session { return sql.NewSession(h.exec, "bench") }

// ecpuTokens returns the tenant's cumulative estimated CPU in tokens.
func (h *tenantHandle) ecpuTokens() float64 {
	est := h.model.Estimate(tenantcost.ECPU(h.exec.SQLCPUSeconds()), h.metered.Features())
	return est.Tokens()
}

// colocatedSender stamps batches with the deployment's process topology:
// Fig 6 and Fig 11 compare the traditional (colocated) deployment against
// Serverless on the same cluster.
type colocatedSender struct {
	inner     txn.Sender
	colocated bool
}

func (c colocatedSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	ba.Colocated = c.colocated
	return c.inner.Send(ctx, ba)
}

// throttledDB wraps a session with per-statement eCPU quota enforcement —
// the role server.SQLNode.enforceQuota plays on the wire path. Every session
// of a tenant charges the tenant's running total to its one bucket.
type throttledDB struct {
	sess   *sql.Session
	handle *tenantHandle
}

// Execute implements workload.DB.
func (d *throttledDB) Execute(ctx context.Context, q string, args ...sql.Datum) (*sql.Result, error) {
	res, err := d.sess.Execute(ctx, q, args...)
	if d.handle.bucket != nil {
		d.handle.bucket.Throttle(ctx, d.handle.ecpuTokens())
	}
	return res, err
}

// fmtDur renders a duration with 3 significant-ish digits.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}
