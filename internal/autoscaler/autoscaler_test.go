package autoscaler

import (
	"context"
	"math"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
)

type env struct {
	cluster *kvserver.Cluster
	reg     *core.Registry
	orch    *orchestrator.Orchestrator
	clock   *timeutil.ManualClock
	as      *Autoscaler
}

func newEnv(t *testing.T) *env {
	t.Helper()
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID: kvserver.NodeID(i), VCPUs: 2, Cost: cheap,
		}))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	reg, err := core.NewRegistry(c, tenantcost.NewBucketServer(timeutil.NewRealClock()))
	if err != nil {
		t.Fatal(err)
	}
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	orch, err := orchestrator.New(orchestrator.Config{
		Cluster:         c,
		Registry:        reg,
		Region:          "us-central1",
		WarmPoolSize:    4,
		PreStartProcess: true,
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(orch.Close)
	as := New(Config{
		Orchestrator: orch,
		Registry:     reg,
		Clock:        clock,
		SuspendAfter: 5 * time.Minute,
	})
	return &env{cluster: c, reg: reg, orch: orch, clock: clock, as: as}
}

// driveLoad sets every assigned pod's synthetic CPU to totalVCPUs spread
// evenly, then advances the clock and ticks the autoscaler.
func (e *env) driveLoad(t *testing.T, ctx context.Context, tenant string, totalVCPUs float64, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		pods := e.orch.PodsForTenant(tenant)
		per := 0.0
		if len(pods) > 0 {
			per = totalVCPUs / float64(len(pods))
		}
		for _, p := range pods {
			p.Node.SetSyntheticLoad(per)
		}
		e.clock.Advance(e.as.ScrapeInterval())
		if err := e.as.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutoscalerScalesUpWithLoad(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)

	// Steady 2.5 vCPUs: target = 4*2.5 = 10 -> ceil(10/4) = 3 nodes (the
	// paper's own worked example in §4.2.3).
	e.driveLoad(t, ctx, "acme", 2.5, 40)
	if got := len(e.orch.PodsForTenant("acme")); got != 3 {
		t.Fatalf("pods = %d, want 3", got)
	}
	if want := e.as.DesiredNodes("acme"); want != 3 {
		t.Fatalf("desired = %d, want 3", want)
	}
}

func TestAutoscalerPeakTermReactsToSpike(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	// Small steady load, then a spike of 11 vCPUs: target = 11*1.33 = 14.6
	// -> 4 nodes (the paper's second worked example).
	e.driveLoad(t, ctx, "acme", 2.5, 10)
	e.driveLoad(t, ctx, "acme", 11, 2)
	if got := e.as.DesiredNodes("acme"); got != 4 {
		t.Fatalf("desired after spike = %d, want 4", got)
	}
	e.driveLoad(t, ctx, "acme", 11, 2)
	if got := len(e.orch.PodsForTenant("acme")); got < 4 {
		t.Fatalf("pods after spike = %d, want >= 4", got)
	}
}

// TestAutoscalerAblationNoPeakTerm builds a long low-load history, then
// spikes for two scrapes. A short spike barely moves the 5-minute average, so
// the average term alone stays below the scale-up count; the peak term is
// what makes the autoscaler react within seconds.
func TestAutoscalerAblationNoPeakTerm(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	step := func(vcpus float64, ticks int) {
		for i := 0; i < ticks; i++ {
			for _, p := range e.orch.PodsForTenant("acme") {
				p.Node.SetSyntheticLoad(vcpus)
			}
			e.clock.Advance(scrapeInterval)
			e.as.Scrape()
		}
	}
	step(0.5, 90) // ~4.5 minutes of light load
	step(11, 2)   // a 6-second spike

	const scaleUp = 4
	now := e.clock.Now()
	ts := e.as.TenantUsage("acme")
	avg, peak := ts.WindowAvg(now, window), ts.WindowMax(now, window)
	nodes := func(vcpus float64) int { return int(math.Ceil(vcpus / e.as.nodeVCPUs)) }
	if got := nodes(avg * avgMultiplier); got >= scaleUp {
		t.Fatalf("average term alone = %d nodes (avg %.2f vCPUs), want < %d", got, avg, scaleUp)
	}
	if got := nodes(targetVCPUs(avg, peak)); got < scaleUp {
		t.Fatalf("full rule = %d nodes (peak %.2f vCPUs), want >= %d", got, peak, scaleUp)
	}
	if got, want := e.as.DesiredNodes("acme"), nodes(targetVCPUs(avg, peak)); got != want {
		t.Fatalf("DesiredNodes = %d, want the full rule's %d", got, want)
	}
}

func TestAutoscalerScalesDownAfterLoadDrops(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	e.driveLoad(t, ctx, "acme", 8, 20)
	if got := len(e.orch.PodsForTenant("acme")); got < 2 {
		t.Fatalf("pods under load = %d", got)
	}
	// Load stops: after the 5-minute window drains, scale down to 1.
	e.driveLoad(t, ctx, "acme", 0.4, 120)
	if got := len(e.orch.PodsForTenant("acme")); got != 1 {
		t.Fatalf("pods after cooldown = %d, want 1", got)
	}
}

func TestAutoscalerSuspendsIdleTenant(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	// Brief activity, then total silence.
	e.driveLoad(t, ctx, "acme", 1, 5)
	e.driveLoad(t, ctx, "acme", 0, 250) // >10 minutes of zero CPU
	got, _ := e.reg.GetByName("acme")
	if got.State != core.StateSuspended {
		t.Fatalf("state = %s, want suspended", got.State)
	}
	if pods := len(e.orch.PodsForTenant("acme")); pods != 0 {
		t.Fatalf("pods after suspend = %d", pods)
	}
}

func TestAutoscalerIgnoresSuspendedTenants(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.reg.Suspend(ctx, "acme")
	if err := e.as.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if pods := len(e.orch.PodsForTenant("acme")); pods != 0 {
		t.Fatalf("suspended tenant got pods: %d", pods)
	}
}

func TestDesiredNodesNoData(t *testing.T) {
	e := newEnv(t)
	if got := e.as.DesiredNodes("ghost"); got != 0 {
		t.Fatalf("desired for unknown tenant = %d", got)
	}
}

// Ticks that come faster than the scrape interval take no sample: fifty
// one-millisecond readings of a 50 ms burst would each enter the window at
// the burst's full rate and scale the tenant up on it.
func TestScrapeHoldsToItsInterval(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	e.driveLoad(t, ctx, "acme", 0.5, 3)
	samples := e.as.TenantUsage("acme").Len()

	for i := 0; i < 50; i++ {
		for _, p := range e.orch.PodsForTenant("acme") {
			p.Node.SetSyntheticLoad(3)
		}
		e.clock.Advance(time.Millisecond)
		if err := e.as.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.as.TenantUsage("acme").Len(); got != samples {
		t.Fatalf("%d samples taken inside one scrape interval", got-samples)
	}
	if got := len(e.orch.PodsForTenant("acme")); got != 1 {
		t.Fatalf("pods = %d after 50 ms at 3 vCPUs, want 1", got)
	}
	// The burst is not lost: the next due scrape averages it over its
	// whole interval.
	for _, p := range e.orch.PodsForTenant("acme") {
		p.Node.SetSyntheticLoad(0)
	}
	e.clock.Advance(e.as.ScrapeInterval())
	e.as.Scrape()
	last, _ := e.as.TenantUsage("acme").Latest()
	if want := 3 * 0.050 / (e.as.ScrapeInterval().Seconds() + 0.050); last.Value < 0.99*want || last.Value > 1.01*want {
		t.Fatalf("sample after the burst = %v vCPUs, want %v", last.Value, want)
	}
}
