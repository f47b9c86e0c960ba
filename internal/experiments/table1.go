package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/workload"
)

// scaleCost multiplies every ground-truth cost constant by f.
func scaleCost(c kvserver.CostConfig, f float64) kvserver.CostConfig {
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	c.ReadBatchOverhead = scale(c.ReadBatchOverhead)
	c.WriteBatchOverhead = scale(c.WriteBatchOverhead)
	c.ReadRequestCost = scale(c.ReadRequestCost)
	c.WriteRequestCost = scale(c.WriteRequestCost)
	c.ReadByteCost = scale(c.ReadByteCost)
	c.WriteByteCost = scale(c.WriteByteCost)
	c.MarshalByteCost = scale(c.MarshalByteCost)
	return c
}

// scaleModel multiplies the estimated-CPU model's per-feature curves by f.
func scaleModel(m *tenantcost.Model, f float64) *tenantcost.Model {
	scaleCurve := func(p tenantcost.PiecewiseLinear) tenantcost.PiecewiseLinear {
		out := tenantcost.PiecewiseLinear{Points: make([]tenantcost.Point, len(p.Points))}
		for i, pt := range p.Points {
			out.Points[i] = tenantcost.Point{X: pt.X, Y: pt.Y * f}
		}
		return out
	}
	return &tenantcost.Model{
		ReadBatch:    scaleCurve(m.ReadBatch),
		ReadRequest:  scaleCurve(m.ReadRequest),
		ReadByte:     scaleCurve(m.ReadByte),
		WriteBatch:   scaleCurve(m.WriteBatch),
		WriteRequest: scaleCurve(m.WriteRequest),
		WriteByte:    scaleCurve(m.WriteByte),
	}
}

// NoisyConfig selects a resource-control configuration of §6.6.
type NoisyConfig int

// The three configurations of Table 1.
const (
	NoLimits NoisyConfig = iota
	ACOnly
	ACAndECPU
)

// String implements fmt.Stringer.
func (c NoisyConfig) String() string {
	switch c {
	case NoLimits:
		return "No Limits"
	case ACOnly:
		return "AC only"
	case ACAndECPU:
		return "AC & eCPU Limits"
	default:
		return fmt.Sprintf("NoisyConfig(%d)", int(c))
	}
}

// Table1Row is one configuration's outcome for the well-behaved tenant.
type Table1Row struct {
	Config NoisyConfig
	P50    time.Duration
	P99    time.Duration
	// TpmC is the test tenant's transactions per minute.
	TpmC float64
	// Aborts counts failed test-tenant transactions.
	Aborts int64
	// MeanUtilization is the mean per-node CPU utilization.
	MeanUtilization float64
}

// TimelineSample is one point of the Fig 12 / Fig 13 series.
type TimelineSample struct {
	At time.Duration
	// CoresPerNode is CPU cores in use on each KV node (Fig 12 top).
	CoresPerNode []float64
	// LeasesPerNode counts range leases per node (Fig 12 bottom).
	LeasesPerNode []int
	// ECPUPerTenant is each tenant's estimated-CPU consumption rate in
	// vCPUs (Fig 13).
	ECPUPerTenant map[string]float64
}

// Table1Options size the experiment.
type Table1Options struct {
	// Duration per configuration (wall clock). Default 2s.
	Duration time.Duration
	// NoisyTenants and NoisyWorkers shape the antagonists. Defaults 3, 24.
	NoisyTenants int
	NoisyWorkers int
	// CostScale multiplies the ground-truth KV service costs so the noisy
	// load saturates the scaled-down cluster the way 10K-warehouse TPC-C
	// saturates the paper's 96-core one. Default 8.
	CostScale float64
	// TestWorkers and ThinkTime shape the well-behaved tenant. Defaults 4,
	// 25ms.
	TestWorkers int
	ThinkTime   time.Duration
	// NoisyQuotaVCPUs is the eCPU limit per noisy tenant in the third
	// configuration. Default 1.2 (10% of a 12-vCPU cluster, matching the
	// paper's limit-of-10 on 96 cores).
	NoisyQuotaVCPUs float64
	// LivenessQueueLimit is the per-node executor queue depth beyond which
	// a node fails liveness. Default 40 — low enough that the unthrottled
	// noisy backlog destabilizes the cluster, comfortably above anything
	// admission control lets through.
	LivenessQueueLimit int
	// Clock drives all waiting and latency measurement. Defaults to the
	// real clock (the workers burn real CPU); tests may inject their own.
	Clock timeutil.Clock
	// Configs to run; default all three.
	Configs []NoisyConfig
}

func (o *Table1Options) defaults() {
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.NoisyTenants == 0 {
		o.NoisyTenants = 3
	}
	if o.NoisyWorkers == 0 {
		o.NoisyWorkers = 48
	}
	if o.CostScale == 0 {
		o.CostScale = 8
	}
	if o.TestWorkers == 0 {
		o.TestWorkers = 4
	}
	if o.ThinkTime == 0 {
		o.ThinkTime = 25 * time.Millisecond
	}
	if o.NoisyQuotaVCPUs == 0 {
		o.NoisyQuotaVCPUs = 1.2
	}
	if o.LivenessQueueLimit == 0 {
		o.LivenessQueueLimit = 40
	}
	if len(o.Configs) == 0 {
		o.Configs = []NoisyConfig{NoLimits, ACOnly, ACAndECPU}
	}
	if o.Clock == nil {
		o.Clock = timeutil.NewRealClock()
	}
}

// Table1Result bundles Table 1 with the Fig 12/13 timelines.
type Table1Result struct {
	Rows      []Table1Row
	Timelines map[NoisyConfig][]TimelineSample
}

// Table1 reproduces §6.6: three noisy TPC-C tenants run transactions in a
// tight loop (each worker on its own warehouse, no contention) while a
// well-behaved tenant runs a stock TPC-C configuration with think time. The
// well-behaved tenant's p50/p99/tpmC are measured under no limits, admission
// control only, and admission control plus per-tenant eCPU limits.
func Table1(opts Table1Options) (*Table1Result, *Table, error) {
	opts.defaults()
	res := &Table1Result{Timelines: make(map[NoisyConfig][]TimelineSample)}

	for _, cfg := range opts.Configs {
		row, timeline, err := runNoisyConfig(cfg, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cfg, err)
		}
		res.Rows = append(res.Rows, *row)
		res.Timelines[cfg] = timeline
	}

	table := &Table{
		Title:   "Table 1: well-behaved tenant under noisy neighbors (§6.6)",
		Columns: []string{"", res.Rows[0].Config.String(), "", ""},
	}
	// Rebuild columns from actual configs.
	table.Columns = []string{"metric"}
	for _, r := range res.Rows {
		table.Columns = append(table.Columns, r.Config.String())
	}
	p50Row := []string{"p50"}
	p99Row := []string{"p99"}
	tpmRow := []string{"tpmC"}
	utilRow := []string{"cpu util"}
	abortRow := []string{"aborts"}
	for _, r := range res.Rows {
		p50Row = append(p50Row, fmtDur(r.P50))
		p99Row = append(p99Row, fmtDur(r.P99))
		tpmRow = append(tpmRow, fmt.Sprintf("%.0f", r.TpmC))
		utilRow = append(utilRow, fmt.Sprintf("%.0f%%", r.MeanUtilization*100))
		abortRow = append(abortRow, fmt.Sprintf("%d", r.Aborts))
	}
	table.Rows = [][]string{p50Row, p99Row, tpmRow, utilRow, abortRow}
	return res, table, nil
}

func runNoisyConfig(cfg NoisyConfig, opts Table1Options) (*Table1Row, []TimelineSample, error) {
	ctx := context.Background()
	tb, err := newTestbed(testbedOptions{
		kvNodes:   3,
		vcpus:     4,
		clock:     opts.Clock,
		cost:      scaleCost(kvserver.DefaultCostConfig(), opts.CostScale),
		admission: cfg != NoLimits,
		// A tight liveness bound: the unthrottled noisy backlog makes
		// nodes miss heartbeats and shed leases (the Fig 12 chaos);
		// admission control keeps executor queues short and nodes live.
		livenessLimit: opts.LivenessQueueLimit,
	})
	if err != nil {
		return nil, nil, err
	}
	defer tb.close()
	// The pricing model must match the scaled ground truth, or eCPU limits
	// would underprice the noisy tenants by the same factor.
	tb.model = scaleModel(tenantcost.DefaultModel(), opts.CostScale)

	// Provision tenants. Noisy tenants get quotas only in the third config.
	quota := 0.0
	if cfg == ACAndECPU {
		quota = opts.NoisyQuotaVCPUs
	}
	var noisy []*tenantHandle
	for i := 0; i < opts.NoisyTenants; i++ {
		h, err := tb.newTenant(ctx, fmt.Sprintf("noisy-%d", i), false, quota)
		if err != nil {
			return nil, nil, err
		}
		noisy = append(noisy, h)
	}
	test, err := tb.newTenant(ctx, "test", false, 0)
	if err != nil {
		return nil, nil, err
	}

	// Load schemas: noisy tenants get one warehouse per worker (slim rows —
	// their job is offered load, not data volume); the test tenant uses the
	// stock shape.
	slimTPCC := func(seed int64) *workload.TPCC {
		gen := workload.NewTPCC(opts.NoisyWorkers, seed)
		gen.DistrictsPerWH = 1
		gen.CustomersPerDistrict = 1
		gen.Items = 10
		return gen
	}
	for i, h := range noisy {
		if err := slimTPCC(int64(100+i)).Setup(ctx, h.session()); err != nil {
			return nil, nil, err
		}
	}
	testGen := workload.NewTPCC(2, 7)
	if err := testGen.Setup(ctx, test.session()); err != nil {
		return nil, nil, err
	}

	// Ensure leases are placed before the storm.
	tb.cluster.Tick()

	// A bucket banks up to 10 s of quota while its tenant idles (§5.2.2), so
	// setup leaves each limited noisy tenant more credit than a run of a few
	// seconds can spend, while the paper measures long after the burst is
	// gone. Charge setup and spend the bank: the run opens in that steady
	// state.
	for _, h := range noisy {
		if h.bucket != nil {
			h.bucket.Throttle(ctx, h.ecpuTokens())
			h.bucket.Consume(h.bucket.LocalTokens() + tb.buckets.Available(h.tenant.ID))
		}
	}

	// Workers run until stop cancels runCtx, which also cuts short any
	// throttle wait.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		wg         sync.WaitGroup
		testHist   = metric.NewHistogram()
		testTxns   int64
		testAborts int64
	)

	// Noisy workers: tight loop, pinned warehouses, per-worker sessions.
	for ti, h := range noisy {
		for w := 1; w <= opts.NoisyWorkers; w++ {
			gen := slimTPCC(int64(1000*ti + w))
			gen.PinnedWarehouse = w
			db := &throttledDB{sess: h.session(), handle: h}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					_ = gen.NewOrder(runCtx, db) //lint:allow faulterr retriable conflicts are expected noise from the noisy neighbor; the measured tenant's errors are checked
				}
			}()
		}
	}

	// Test tenant workers: stock mix with think time. Like the paper's
	// client, a worker retries a failed transaction until it completes (or
	// the run ends), so cluster instability shows up as high latency and
	// lost throughput; aborts count the retries consumed.
	for w := 0; w < opts.TestWorkers; w++ {
		gen := workload.NewTPCC(2, int64(9000+w))
		sess := test.session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				start := tb.clock.Now()
				for {
					err := gen.RunMix(runCtx, sess)
					if err == nil {
						testHist.Record(tb.clock.Since(start))
						atomic.AddInt64(&testTxns, 1)
						break
					}
					atomic.AddInt64(&testAborts, 1)
					if runCtx.Err() != nil {
						return
					}
					tb.clock.Sleep(5 * time.Millisecond)
				}
				tb.clock.Sleep(opts.ThinkTime)
			}
		}()
	}

	// Sampler: cluster maintenance + the Fig 12/13 series.
	var timeline []TimelineSample
	nodes := tb.cluster.Nodes()
	prevBusy := make([]time.Duration, len(nodes))
	prevECPU := map[string]float64{}
	for _, h := range noisy {
		prevECPU[h.tenant.Name] = h.ecpuTokens()
	}
	prevECPU["test"] = test.ecpuTokens()
	var utilSum float64
	var utilN int

	sampleEvery := 100 * time.Millisecond
	begin := tb.clock.Now()
	deadline := begin.Add(opts.Duration)
	for tb.clock.Now().Before(deadline) {
		tb.clock.Sleep(sampleEvery)
		tb.cluster.Tick()
		s := TimelineSample{At: tb.clock.Since(begin), ECPUPerTenant: map[string]float64{}}
		for i, n := range nodes {
			busy := n.CPUBusy()
			cores := (busy - prevBusy[i]).Seconds() / sampleEvery.Seconds()
			prevBusy[i] = busy
			s.CoresPerNode = append(s.CoresPerNode, cores)
			utilSum += cores / float64(n.VCPUs())
			utilN++
		}
		counts := tb.cluster.LeaseCounts()
		for _, n := range nodes {
			s.LeasesPerNode = append(s.LeasesPerNode, counts[n.ID()])
		}
		all := append(append([]*tenantHandle(nil), noisy...), test)
		for _, h := range all {
			cur := h.ecpuTokens()
			rate := (cur - prevECPU[h.tenant.Name]) / 1000 / sampleEvery.Seconds() // vCPUs
			prevECPU[h.tenant.Name] = cur
			s.ECPUPerTenant[h.tenant.Name] = rate
		}
		timeline = append(timeline, s)
	}
	if len(timeline) > 1 {
		timeline = timeline[1:] // the first sample straddles worker launch
	}
	// Snapshot throughput at stop time: the workers' drain is not part of
	// the measurement window.
	elapsed := tb.clock.Since(begin)
	txns := atomic.LoadInt64(&testTxns)
	aborts := atomic.LoadInt64(&testAborts)
	stop()
	wg.Wait()

	row := &Table1Row{
		Config: cfg,
		P50:    testHist.P50(),
		P99:    testHist.P99(),
		TpmC:   float64(txns) / elapsed.Minutes(),
		Aborts: aborts,
	}
	if utilN > 0 {
		row.MeanUtilization = utilSum / float64(utilN)
	}
	return row, timeline, nil
}

// Fig12Table renders the per-node cores and lease series for one config.
func Fig12Table(cfg NoisyConfig, timeline []TimelineSample) *Table {
	table := &Table{
		Title:   fmt.Sprintf("Fig 12 (%s): cores used and range leases per node", cfg),
		Columns: []string{"t", "cores n1", "cores n2", "cores n3", "leases n1", "leases n2", "leases n3"},
	}
	for i, s := range timeline {
		if i%2 != 0 {
			continue
		}
		row := []string{fmt.Sprintf("%.1fs", s.At.Seconds())}
		for _, c := range s.CoresPerNode {
			row = append(row, fmt.Sprintf("%.1f", c))
		}
		for _, l := range s.LeasesPerNode {
			row = append(row, fmt.Sprintf("%d", l))
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}

// Fig13Table renders the per-tenant eCPU series for one config.
func Fig13Table(cfg NoisyConfig, timeline []TimelineSample) *Table {
	table := &Table{
		Title:   fmt.Sprintf("Fig 13 (%s): eCPU used per tenant (vCPUs)", cfg),
		Columns: []string{"t", "noisy-0", "noisy-1", "noisy-2", "test"},
	}
	for i, s := range timeline {
		if i%2 != 0 {
			continue
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.1fs", s.At.Seconds()),
			fmt.Sprintf("%.2f", s.ECPUPerTenant["noisy-0"]),
			fmt.Sprintf("%.2f", s.ECPUPerTenant["noisy-1"]),
			fmt.Sprintf("%.2f", s.ECPUPerTenant["noisy-2"]),
			fmt.Sprintf("%.2f", s.ECPUPerTenant["test"]),
		})
	}
	return table
}
