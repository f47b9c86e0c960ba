package autoscaler

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/server"
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
		Registry:     reg,
		Node:         server.SQLNodeConfig{Cluster: c, Region: "us-central1", Clock: clock},
		WarmPoolSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(orch.Close)
	as := New(Config{
		Orchestrator: orch,
		Clock:        clock,
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
		e.clock.Advance(scrapeInterval)
		if err := e.as.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// usage returns how many samples the tenant's ring holds, the newest of
// them, and the ring's average and peak as of now.
func (e *env) usage(name string) (n int, latest, avg, peak float64) {
	e.as.mu.Lock()
	defer e.as.mu.Unlock()
	r := e.as.mu.usage[name]
	if r == nil {
		return 0, 0, 0, 0
	}
	avg, peak = r.stats(e.clock.Now())
	return r.n, r.samples[(r.next+ringSize-1)%ringSize].vcpus, avg, peak
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
	if want := e.as.DesiredNodes("acme", 0); want != 3 {
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
	if got := e.as.DesiredNodes("acme", 0); got != 4 {
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
	_, _, avg, peak := e.usage("acme")
	nodes := func(vcpus float64) int { return int(math.Ceil(vcpus / e.as.nodeVCPUs)) }
	if got := nodes(avg * avgMultiplier); got >= scaleUp {
		t.Fatalf("average term alone = %d nodes (avg %.2f vCPUs), want < %d", got, avg, scaleUp)
	}
	if got := nodes(targetVCPUs(avg, peak)); got < scaleUp {
		t.Fatalf("full rule = %d nodes (peak %.2f vCPUs), want >= %d", got, peak, scaleUp)
	}
	if got, want := e.as.DesiredNodes("acme", 0), nodes(targetVCPUs(avg, peak)); got != want {
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
	if pods := len(e.orch.PodsForTenant("acme")); pods != 0 {
		t.Fatalf("pods after suspend = %d", pods)
	}
	if names := e.orch.Tenants(); len(names) != 0 {
		t.Fatalf("tenants with pods after suspend = %q", names)
	}
}

// TestAutoscalerIgnoresSuspendedTenants: a tenant whose pods were stopped
// gets none back from the autoscaler; only a connection resumes it.
func TestAutoscalerIgnoresSuspendedTenants(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	e.orch.SuspendTenant("acme")
	e.driveLoad(t, ctx, "acme", 0, 5)
	if pods := len(e.orch.PodsForTenant("acme")); pods != 0 {
		t.Fatalf("suspended tenant got pods: %d", pods)
	}
}

// TestScrapeKeepsNoStateForTenantsWithoutPods: tenants that were created
// but never ran are active in the registry and have no pods; the
// autoscaler keeps no usage ring or idle mark for them.
func TestScrapeKeepsNoStateForTenantsWithoutPods(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := e.reg.CreateTenant(ctx, fmt.Sprintf("t%02d", i), core.TenantOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	e.driveLoad(t, ctx, "t00", 0, 3)
	e.as.mu.Lock()
	defer e.as.mu.Unlock()
	if len(e.as.mu.usage) != 0 || len(e.as.mu.idleSince) != 0 {
		t.Fatalf("%d rings and %d idle marks for tenants without pods", len(e.as.mu.usage), len(e.as.mu.idleSince))
	}
}

func TestDesiredNodesNoData(t *testing.T) {
	e := newEnv(t)
	if got := e.as.DesiredNodes("ghost", 0); got != 0 {
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
	samples, _, _, _ := e.usage("acme")

	for i := 0; i < 50; i++ {
		for _, p := range e.orch.PodsForTenant("acme") {
			p.Node.SetSyntheticLoad(3)
		}
		e.clock.Advance(time.Millisecond)
		if err := e.as.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got, _, _, _ := e.usage("acme"); got != samples {
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
	e.clock.Advance(scrapeInterval)
	e.as.Scrape()
	_, last, _, _ := e.usage("acme")
	if want := 3 * 0.050 / (scrapeInterval.Seconds() + 0.050); last < 0.99*want || last > 1.01*want {
		t.Fatalf("sample after the burst = %v vCPUs, want %v", last, want)
	}
}

// scrapeAfter sets the tenant's one pod to vcpus, advances the clock by gap
// and scrapes, so the sample taken now is vcpus.
func (e *env) scrapeAfter(tenant string, gap time.Duration, vcpus float64) {
	for _, p := range e.orch.PodsForTenant(tenant) {
		p.Node.SetSyntheticLoad(vcpus)
	}
	e.clock.Advance(gap)
	e.as.Scrape()
}

// TestDesiredNodesWindowSpikeEdge: with scrapes exactly one interval apart,
// a one-scrape spike counts while it is inside (now-5m, now] and stops
// counting the moment it is exactly 5 minutes old.
func TestDesiredNodesWindowSpikeEdge(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	for i := 0; i < 120; i++ { // six minutes of light load
		e.scrapeAfter("acme", scrapeInterval, 0.5)
	}
	if got := e.as.DesiredNodes("acme", 0); got != 1 {
		t.Fatalf("desired before the spike = %d, want 1", got)
	}
	e.scrapeAfter("acme", scrapeInterval, 11) // 1.33 * 11 vCPUs -> 4 nodes
	spikeAt := e.clock.Now()
	for e.clock.Now().Sub(spikeAt) < window {
		if got := e.as.DesiredNodes("acme", 0); got != 4 {
			t.Fatalf("desired %v after the spike = %d, want 4", e.clock.Now().Sub(spikeAt), got)
		}
		e.scrapeAfter("acme", scrapeInterval, 0.5)
	}
	if age := e.clock.Now().Sub(spikeAt); age != window {
		t.Fatalf("spike age = %v, want exactly %v", age, window)
	}
	if got := e.as.DesiredNodes("acme", 0); got != 1 {
		t.Fatalf("desired once the spike is exactly %v old = %d, want 1", window, got)
	}
}

// TestDesiredNodesWindowIrregularGaps: scrapes 3 s, 4.5 s and 9 s apart; at
// every scrape DesiredNodes matches the target rule over a brute-force
// average and peak of the loads driven in (now-5m, now].
func TestDesiredNodesWindowIrregularGaps(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.orch.ScaleTenant(ctx, tn, 1)
	type sample struct {
		at    time.Time
		vcpus float64
	}
	// The first scrape has no earlier reading of the pod, so it samples 0.
	e.scrapeAfter("acme", scrapeInterval, 0)
	driven := []sample{{e.clock.Now(), 0}}
	gaps := []time.Duration{3 * time.Second, 4500 * time.Millisecond, 9 * time.Second}
	for i := 0; i < 300; i++ {
		vcpus := 0.3 + float64((i*7)%13)*0.41
		if i%37 == 0 {
			vcpus = 9.7
		}
		e.scrapeAfter("acme", gaps[i%len(gaps)], vcpus)
		now := e.clock.Now()
		driven = append(driven, sample{now, vcpus})

		var sum, peak float64
		var n int
		for _, s := range driven {
			if s.at.After(now.Add(-window)) {
				sum += s.vcpus
				peak = math.Max(peak, s.vcpus)
				n++
			}
		}
		want := int(math.Ceil(targetVCPUs(sum/float64(n), peak) / e.as.nodeVCPUs))
		if want < 1 {
			want = 1
		}
		if got := e.as.DesiredNodes("acme", 0); got != want {
			t.Fatalf("scrape %d: desired = %d, want %d (avg %.3f, peak %.2f over %d samples)",
				i, got, want, sum/float64(n), peak, n)
		}
	}
}

// TestScrapeForgetsInactiveTenants cycles 200 tenants through resume,
// scrape and suspend. The autoscaler's per-pod and per-tenant maps must hold
// no more than the pods and active tenants of the last scrape.
func TestScrapeForgetsInactiveTenants(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("t%03d", i)
		if _, err := e.reg.CreateTenant(ctx, name, core.TenantOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.orch.Lookup(ctx, name); err != nil { // resume
			t.Fatal(err)
		}
		e.clock.Advance(scrapeInterval)
		if err := e.as.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		active, pods := 0, 0
		for _, name := range e.orch.Tenants() {
			active++
			pods += len(e.orch.PodsForTenant(name))
		}
		e.as.mu.Lock()
		usage, idle, lastCPU := len(e.as.mu.usage), len(e.as.mu.idleSince), len(e.as.mu.lastCPU)
		e.as.mu.Unlock()
		if usage > active || idle > active || lastCPU > pods {
			t.Fatalf("cycle %d: %d rings, %d idle marks, %d pod readings for %d active tenants on %d pods",
				i, usage, idle, lastCPU, active, pods)
		}
		e.orch.SuspendTenant(name)
	}
}

// TestReconcilePastAFailingTenant: with every pod start crashing
// (orchestrator.start.crash) and no warm pod, tenant "a"'s scale-up fails.
// The round still scales "b", which sorts after it, down from two pods to
// one, and reaps the pod it drained; the loop hands the failure to Start's
// callback.
func TestReconcilePastAFailingTenant(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	faults := faultinject.New(5, nil)
	orch, err := orchestrator.New(orchestrator.Config{
		Registry: e.reg,
		Node:     server.SQLNodeConfig{Cluster: e.cluster, Region: "us-central1", Clock: e.clock},
		Faults:   faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(orch.Close)
	var failed []error
	loop := New(Config{Orchestrator: orch, Clock: e.clock}).Start(func(err error) { failed = append(failed, err) })
	defer loop.Stop()

	a, _ := e.reg.CreateTenant(ctx, "a", core.TenantOptions{})
	b, _ := e.reg.CreateTenant(ctx, "b", core.TenantOptions{})
	for _, tn := range []*core.Tenant{a, b} {
		if _, err := orch.ScaleTenant(ctx, tn, 1); err != nil {
			t.Fatal(err)
		}
	}
	e.clock.Advance(scrapeInterval) // the first round reads every pod's CPU
	orch.PodsForTenant("a")[0].Node.SetSyntheticLoad(8)
	if _, err := orch.ScaleTenant(ctx, b, 2); err != nil {
		t.Fatal(err)
	}
	faults.Enable("orchestrator.start.crash", faultinject.Site{Probability: 1})
	e.clock.Advance(scrapeInterval)

	if len(failed) != 1 || !faultinject.IsInjected(failed[0]) {
		t.Fatalf("round failures = %v, want one injected crash", failed)
	}
	if got := len(orch.PodsForTenant("a")); got != 1 {
		t.Fatalf("a has %d pods, want 1: its scale-up failed", got)
	}
	if got := len(orch.PodsForTenant("b")); got != 1 {
		t.Fatalf("b has %d pods, want 1: scaled down, and the drained pod reaped", got)
	}
}
