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
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/timeutil"
)

const (
	// scrapeInterval is the metrics cadence (§4.3.2).
	scrapeInterval = 3 * time.Second
	// window is the averaging window of the target rule.
	window = 5 * time.Minute
	// suspendAfter is how long a tenant must be idle (zero CPU, zero
	// connections) before it is suspended to zero.
	suspendAfter = 5 * time.Minute
	// avgMultiplier and peakMultiplier form the target rule
	// max(avg*avgMultiplier, peak*peakMultiplier) (§4.2.3).
	avgMultiplier  = 4
	peakMultiplier = 1.33
	// ringSize is how many samples a tenant's usage ring keeps.
	ringSize = int(window / scrapeInterval)
)

// usageRing is a tenant's last ringSize CPU samples. Scrape records at most
// one sample per scrapeInterval, so no more than window/scrapeInterval
// samples can fall in (now-window, now], and those are the newest ones: the
// ring filtered to that interval holds every sample the target rule reads.
type usageRing struct {
	samples [ringSize]struct {
		at    time.Time
		vcpus float64
	}
	next int // slot the next sample is written to
	n    int // samples held
}

func (r *usageRing) add(at time.Time, vcpus float64) {
	r.samples[r.next].at, r.samples[r.next].vcpus = at, vcpus
	r.next = (r.next + 1) % ringSize
	if r.n < ringSize {
		r.n++
	}
}

// stats returns the average and peak of the samples taken in
// (now-window, now], oldest first, or zeros when there are none.
func (r *usageRing) stats(now time.Time) (avg, peak float64) {
	cutoff := now.Add(-window)
	var sum float64
	var n int
	for i := r.next - r.n; i < r.next; i++ {
		s := r.samples[(i+ringSize)%ringSize]
		if s.at.After(cutoff) && !s.at.After(now) {
			sum += s.vcpus
			if n == 0 || s.vcpus > peak {
				peak = s.vcpus
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), peak
}

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
	// Orchestrator runs the region's pods. The tenants it has pods for are
	// the ones the autoscaler scales (§4.2.3); a tenant at zero is resumed
	// by the proxy, not here.
	Orchestrator *orchestrator.Orchestrator
	Clock        timeutil.Clock
}

// Autoscaler drives SQL node allocation for the tenants with pods in one
// region.
type Autoscaler struct {
	cfg       Config
	nodeVCPUs float64

	mu struct {
		sync.Mutex
		// usage holds the CPU samples (vCPUs) of each tenant that had pods
		// at the last scrape.
		usage map[string]*usageRing
		// lastCPU holds the cumulative CPU of each pod read at the last
		// scrape.
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
	a := &Autoscaler{cfg: cfg, nodeVCPUs: float64(cfg.Orchestrator.NodeVCPUs())}
	a.mu.idleSince = make(map[string]time.Time)
	a.mu.lastAt = cfg.Clock.Now()
	return a
}

// Scrape reads cumulative CPU from every assigned pod and folds per-tenant
// usage rates into the usage rings. It holds to the scrape cadence however
// often it is called: a call less than scrapeInterval after the last scrape
// does nothing, because a rate taken over a sliver of an interval is noise
// (one statement finishing inside a millisecond reads as several vCPUs) and
// every extra sample would weigh on the window average.
//
// Each scrape keeps state only for what it read: a pod it did not read
// loses its CPU reading, and a tenant without pods loses its ring and its
// idle mark, so a resumed tenant starts like a new one.
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

	usage := make(map[string]*usageRing, len(a.mu.usage))
	lastCPU := make(map[int64]float64, len(a.mu.lastCPU))
	for _, name := range a.cfg.Orchestrator.Tenants() {
		var rate float64
		for _, p := range a.cfg.Orchestrator.PodsForTenant(name) {
			cum := p.Node.CumulativeCPUSeconds()
			prev, seen := a.mu.lastCPU[p.Node.InstanceID()]
			lastCPU[p.Node.InstanceID()] = cum
			if seen && cum > prev {
				rate += (cum - prev) / dt
			}
		}
		r := a.mu.usage[name]
		if r == nil {
			r = new(usageRing)
		}
		r.add(now, rate)
		usage[name] = r
	}
	a.mu.usage, a.mu.lastCPU = usage, lastCPU
	for name := range a.mu.idleSince {
		if usage[name] == nil {
			delete(a.mu.idleSince, name)
		}
	}
}

// DesiredNodes computes the node count for a tenant whose pods hold conns
// connections, from its usage ring: ceil(max(4*avg, 1.33*peak) /
// nodeVCPUs), with a floor of one node while the tenant has connections or
// recent usage.
func (a *Autoscaler) DesiredNodes(name string, conns int) int {
	var avg, peak float64
	a.mu.Lock()
	if r := a.mu.usage[name]; r != nil {
		avg, peak = r.stats(a.cfg.Clock.Now())
	}
	a.mu.Unlock()
	nodes := int(math.Ceil(targetVCPUs(avg, peak) / a.nodeVCPUs))
	if nodes < 1 && (conns > 0 || peak > 0) {
		nodes = 1
	}
	return nodes
}

// Reconcile scales every tenant with pods toward its desired node count,
// suspends tenants that have been fully idle past the suspend deadline, and
// reaps drained pods. A tenant whose scaling fails does not stop the rest:
// every tenant is reconciled and the pods reaped, and the failures come back
// joined.
func (a *Autoscaler) Reconcile(ctx context.Context) error {
	now := a.cfg.Clock.Now()
	var errs []error
	for _, name := range a.cfg.Orchestrator.Tenants() {
		pods := a.cfg.Orchestrator.PodsForTenant(name)
		if len(pods) == 0 {
			continue // suspended since Tenants read the pod map
		}
		conns := 0
		for _, p := range pods {
			conns += p.Node.ConnCount()
		}
		want := a.DesiredNodes(name, conns)
		// Every pod holds its tenant's record and observability handle
		// since AssignPod stamped it; decisions are recorded on the handle
		// (autoscaler.tenant_scale_events{result=up|down|suspend}).
		tenant, obs := pods[0].Node.Tenant(), pods[0].Node.Obs()

		// Idle tracking for suspension: no usage in the window and no
		// connections.
		idle := want == 0
		a.mu.Lock()
		since, tracked := a.mu.idleSince[name]
		if idle && !tracked {
			a.mu.idleSince[name] = now
			since = now
		} else if !idle && tracked {
			delete(a.mu.idleSince, name)
		}
		a.mu.Unlock()

		if idle && now.Sub(since) >= suspendAfter {
			a.cfg.Orchestrator.SuspendTenant(name)
			obs.ScaleEvent("suspend")
			a.mu.Lock()
			delete(a.mu.idleSince, name)
			a.mu.Unlock()
			continue
		}
		if want < 1 {
			want = 1 // keep one node while not yet suspendable
		}
		if want > len(pods) {
			obs.ScaleEvent("up")
		} else if want < len(pods) {
			obs.ScaleEvent("down")
		}
		if _, err := a.cfg.Orchestrator.ScaleTenant(ctx, tenant, want); err != nil {
			errs = append(errs, fmt.Errorf("autoscaler: scaling tenant %s: %w", name, err))
		}
	}
	a.cfg.Orchestrator.Tick()
	return errors.Join(errs...)
}

// Tick performs one scrape+reconcile step. Start runs it every
// scrapeInterval; tests that build an Autoscaler alone call it themselves.
func (a *Autoscaler) Tick(ctx context.Context) error {
	a.Scrape()
	return a.Reconcile(ctx)
}

// Start runs Tick every scrapeInterval on the configured clock until the
// returned loop stops. failed receives the error of every round that fails.
func (a *Autoscaler) Start(failed func(error)) *timeutil.Loop {
	return timeutil.Every(a.cfg.Clock, scrapeInterval, func(ctx context.Context) error {
		err := a.Tick(ctx)
		if err != nil {
			failed(err)
		}
		return err
	})
}
