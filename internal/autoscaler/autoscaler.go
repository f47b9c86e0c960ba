// Package autoscaler implements the SQL-compute autoscaling algorithm of
// §4.2.3: per tenant, the target capacity is the larger of 4x the 5-minute
// average CPU usage and 1.33x the 5-minute peak — a moving average for
// stability combined with an instantaneous maximum for responsiveness. The
// autoscaler scrapes CPU metrics directly from SQL nodes at a 3-second
// interval (§4.3.2's just-in-time scraping, replacing the 20-30s Prometheus
// pipeline) and reconciles pod counts through the orchestrator.
package autoscaler

import (
	"context"
	"math"
	"sync"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
)

const (
	// scrapeInterval is the metrics cadence (§4.3.2).
	scrapeInterval = 3 * time.Second
	// window is the averaging window of the target rule.
	window = 5 * time.Minute
	// avgMultiplier and peakMultiplier form the target rule
	// max(avg*avgMultiplier, peak*peakMultiplier) (§4.2.3).
	avgMultiplier  = 4
	peakMultiplier = 1.33
)

// targetVCPUs is the §4.2.3 target capacity for a tenant whose usage over
// the window averaged avg vCPUs and peaked at peak: the average term gives
// stability, the peak term responsiveness.
func targetVCPUs(avg, peak float64) float64 {
	target := avg * avgMultiplier
	if p := peak * peakMultiplier; p > target {
		target = p
	}
	return target
}

// Config configures an Autoscaler.
type Config struct {
	Orchestrator *orchestrator.Orchestrator
	Registry     *core.Registry
	Clock        timeutil.Clock
	// SuspendAfter is how long a tenant must be idle (zero CPU, zero
	// connections) before it is suspended to zero. Defaults to 5 minutes.
	SuspendAfter time.Duration
	// Obs, when non-nil, records each scaling decision against its tenant
	// (autoscaler.tenant_scale_events{result=up|down|suspend}).
	Obs *tenantobs.Plane
}

// Autoscaler drives SQL node allocation for all tenants of one region.
type Autoscaler struct {
	cfg       Config
	nodeVCPUs float64

	mu struct {
		sync.Mutex
		// usage holds each tenant's CPU usage (vCPUs) time series.
		usage map[string]*metric.TimeSeries
		// lastCPU holds per-pod cumulative CPU at the last scrape.
		lastCPU   map[int64]float64
		lastAt    time.Time
		idleSince map[string]time.Time
	}
}

// New returns an Autoscaler.
func New(cfg Config) *Autoscaler {
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.SuspendAfter == 0 {
		cfg.SuspendAfter = 5 * time.Minute
	}
	a := &Autoscaler{cfg: cfg, nodeVCPUs: float64(cfg.Orchestrator.NodeVCPUs())}
	a.mu.usage = make(map[string]*metric.TimeSeries)
	a.mu.lastCPU = make(map[int64]float64)
	a.mu.idleSince = make(map[string]time.Time)
	a.mu.lastAt = cfg.Clock.Now()
	return a
}

// ScrapeInterval returns the scrape cadence.
func (a *Autoscaler) ScrapeInterval() time.Duration { return scrapeInterval }

// Scrape reads cumulative CPU from every assigned pod and folds per-tenant
// usage rates into the time series. It holds to the scrape cadence however
// often it is called: a call less than ScrapeInterval after the last scrape
// does nothing, because a rate taken over a sliver of an interval is noise
// (one statement finishing inside a millisecond reads as several vCPUs) and
// every extra sample would weigh on the window average.
func (a *Autoscaler) Scrape() {
	now := a.cfg.Clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	elapsed := now.Sub(a.mu.lastAt)
	if elapsed < scrapeInterval {
		return
	}
	dt := elapsed.Seconds()
	a.mu.lastAt = now

	for _, t := range a.cfg.Registry.List() {
		if t.State != core.StateActive {
			continue
		}
		pods := a.cfg.Orchestrator.PodsForTenant(t.Name)
		var rate float64
		for _, p := range pods {
			cum := p.Node.CumulativeCPUSeconds()
			prev, seen := a.mu.lastCPU[p.Node.InstanceID()]
			a.mu.lastCPU[p.Node.InstanceID()] = cum
			if seen && cum > prev {
				rate += (cum - prev) / dt
			}
		}
		ts, ok := a.mu.usage[t.Name]
		if !ok {
			ts = metric.NewTimeSeries(2 * window)
			a.mu.usage[t.Name] = ts
		}
		ts.Add(now, rate)
	}
}

// TenantUsage returns the tenant's usage series (for the experiment harness).
func (a *Autoscaler) TenantUsage(name string) *metric.TimeSeries {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mu.usage[name]
}

// DesiredNodes computes the node count for a tenant from its usage series:
// ceil(max(4*avg, 1.33*peak) / nodeVCPUs), with a floor of one node while
// the tenant has connections or recent usage.
func (a *Autoscaler) DesiredNodes(name string) int {
	a.mu.Lock()
	ts := a.mu.usage[name]
	a.mu.Unlock()
	if ts == nil {
		return 0
	}
	now := a.cfg.Clock.Now()
	avg, peak := ts.WindowAvg(now, window), ts.WindowMax(now, window)
	nodes := int(math.Ceil(targetVCPUs(avg, peak) / a.nodeVCPUs))
	hasConns := false
	for _, p := range a.cfg.Orchestrator.PodsForTenant(name) {
		if p.Node.ConnCount() > 0 {
			hasConns = true
			break
		}
	}
	if nodes < 1 && (hasConns || peak > 0) {
		nodes = 1
	}
	return nodes
}

// Reconcile scales every active tenant toward its desired node count, and
// suspends tenants that have been fully idle past the suspend deadline.
func (a *Autoscaler) Reconcile(ctx context.Context) error {
	now := a.cfg.Clock.Now()
	for _, t := range a.cfg.Registry.List() {
		if t.State != core.StateActive {
			continue
		}
		pods := a.cfg.Orchestrator.PodsForTenant(t.Name)
		if len(pods) == 0 {
			continue // already at zero; the proxy resumes it on demand
		}
		want := a.DesiredNodes(t.Name)

		// Idle tracking for suspension.
		conns := 0
		for _, p := range pods {
			conns += p.Node.ConnCount()
		}
		idle := want == 0 && conns == 0
		a.mu.Lock()
		since, tracked := a.mu.idleSince[t.Name]
		if idle && !tracked {
			a.mu.idleSince[t.Name] = now
			since = now
		} else if !idle && tracked {
			delete(a.mu.idleSince, t.Name)
		}
		a.mu.Unlock()

		if idle && now.Sub(since) >= a.cfg.SuspendAfter {
			if err := a.cfg.Orchestrator.SuspendTenant(ctx, t.Name); err != nil {
				return err
			}
			a.cfg.Obs.ScaleEvent(t.Name, "suspend")
			a.mu.Lock()
			delete(a.mu.idleSince, t.Name)
			a.mu.Unlock()
			continue
		}
		if want < 1 {
			want = 1 // keep one node while not yet suspendable
		}
		if want > len(pods) {
			a.cfg.Obs.ScaleEvent(t.Name, "up")
		} else if want < len(pods) {
			a.cfg.Obs.ScaleEvent(t.Name, "down")
		}
		if _, err := a.cfg.Orchestrator.ScaleTenant(ctx, t, want); err != nil {
			return err
		}
	}
	a.cfg.Orchestrator.Tick()
	return nil
}

// Tick performs one scrape+reconcile step. The caller drives it at
// ScrapeInterval (tests and the simulation use a manual clock).
func (a *Autoscaler) Tick(ctx context.Context) error {
	a.Scrape()
	return a.Reconcile(ctx)
}
