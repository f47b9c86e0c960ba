// Package tenantobs implements the tenant-dimensional observability plane:
// one place that turns per-request signals from every layer of the stack
// (proxy connections, SQL executions, txn retries, DistSender batches,
// admission waits, RU consumption, autoscaler decisions) into labeled
// metric vectors, windowed time series, and SLO burn rates, keyed by
// tenant. The paper's cluster-virtualization claim — thousands of tenants
// sharing one KV cluster — is only operable if exactly this per-tenant
// telemetry exists; the flat registry of PRs 1–2 could not distinguish a
// noisy neighbor from fleet-wide load.
//
// Every Plane method is nil-safe: a nil *Plane records nothing, so
// instrumented packages call unconditionally and tests that don't care
// about observability pay nothing, the same contract as nil trace spans.
//
// Tenant cardinality is hard-capped. Once MaxTenants distinct tenants have
// been seen, further tenants collapse into a single __overflow__
// pseudo-tenant (windows, SLO, and every labeled series included), so
// memory stays bounded no matter how many tenants a run creates, and the
// split is first-arrival deterministic.
package tenantobs

import (
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

// Config configures a Plane.
type Config struct {
	// Registry receives the labeled vectors. Required.
	Registry *metric.Registry
	// Clock timestamps windowed observations. Required.
	Clock timeutil.Clock
	// MaxTenants caps distinct tenants (default 2048); excess tenants are
	// absorbed into the __overflow__ pseudo-tenant.
	MaxTenants int
}

// tenantState is everything the plane keeps per tenant beyond the labeled
// vector children: the query-latency window ring and the SLO tracker.
type tenantState struct {
	name  string // label value; OverflowLabelValue for the shared overflow state
	id    keys.TenantID
	win   *metric.Windowed
	slo   *metric.SLO
	conns *metric.Counter // cached proxy.tenant_conns child
}

// Plane is the tenant observability plane. Safe for concurrent use.
//
// Each tenant's window ring holds metric.DefaultWindowCount windows of
// metric.DefaultWindowWidth (1h retention), and a tenant's SLO is
// metric.DefaultObjective until SetObjective is called.
type Plane struct {
	clock timeutil.Clock
	max   int

	conns       *metric.CounterVec   // proxy.tenant_conns{tenant}
	queries     *metric.CounterVec   // sql.tenant_queries{tenant,result}
	execLat     *metric.HistogramVec // sql.tenant_exec_latency{tenant}
	retries     *metric.CounterVec   // txn.tenant_retries{tenant}
	commits     *metric.CounterVec   // txn.tenant_commits{tenant,result}
	commitRetry *metric.CounterVec   // txn.tenant_commit_retries{tenant}
	batches     *metric.CounterVec   // dist.tenant_batches{tenant}
	admWait     *metric.HistogramVec // admission.tenant_wait{tenant}
	ru          *metric.GaugeVec     // tenantcost.tenant_ru{tenant}
	scaleEvents *metric.CounterVec   // autoscaler.tenant_scale_events{tenant,result}

	mu       sync.Mutex
	byID     map[keys.TenantID]*tenantState
	byName   map[string]*tenantState
	states   []*tenantState // non-overflow states in creation order
	overflow *tenantState   // lazily created at the cap
	absorbed int64          // distinct tenants routed to overflow
}

// New builds a Plane and registers its labeled vectors on cfg.Registry.
func New(cfg Config) *Plane {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = metric.DefaultVecCardinality
	}
	r := cfg.Registry
	p := &Plane{
		clock:       cfg.Clock,
		max:         cfg.MaxTenants,
		conns:       r.NewCounterVec("proxy.tenant_conns", "tenant"),
		queries:     r.NewCounterVec("sql.tenant_queries", "tenant", "result"),
		execLat:     r.NewHistogramVec("sql.tenant_exec_latency", "tenant"),
		retries:     r.NewCounterVec("txn.tenant_retries", "tenant"),
		commits:     r.NewCounterVec("txn.tenant_commits", "tenant", "result"),
		commitRetry: r.NewCounterVec("txn.tenant_commit_retries", "tenant"),
		batches:     r.NewCounterVec("dist.tenant_batches", "tenant"),
		admWait:     r.NewHistogramVec("admission.tenant_wait", "tenant"),
		ru:          r.NewGaugeVec("tenantcost.tenant_ru", "tenant"),
		scaleEvents: r.NewCounterVec("autoscaler.tenant_scale_events", "tenant", "result"),
		byID:        make(map[keys.TenantID]*tenantState),
		byName:      make(map[string]*tenantState),
	}
	// The plane converts overflow tenants to the __overflow__ label before
	// touching any vector, so the vector-level caps only need to cover the
	// plane's own cap (plus the overflow child and the small result
	// dimension on two-label vectors).
	single := cfg.MaxTenants + 1
	double := 4 * (cfg.MaxTenants + 1)
	for _, v := range []interface{ SetMaxCardinality(int) }{p.conns, p.execLat, p.retries, p.commitRetry, p.batches, p.admWait, p.ru} {
		v.SetMaxCardinality(single)
	}
	p.queries.SetMaxCardinality(double)
	p.commits.SetMaxCardinality(double)
	p.scaleEvents.SetMaxCardinality(double)
	return p
}

// Now returns the plane's clock reading; the zero time when the plane is
// nil.
func (p *Plane) Now() time.Time {
	if p == nil {
		return time.Time{}
	}
	return p.clock.Now()
}

// newStateLocked builds a tenantState for name with the given objective.
func (p *Plane) newStateLocked(name string, id keys.TenantID, obj metric.Objective) *tenantState {
	return &tenantState{
		name:  name,
		id:    id,
		win:   metric.NewWindowed(metric.DefaultWindowWidth, metric.DefaultWindowCount),
		slo:   metric.NewSLO(obj, metric.DefaultWindowWidth, metric.DefaultWindowCount),
		conns: p.conns.With(name),
	}
}

// ensureLocked returns the state for (id, name), creating it if needed.
// Either id or name may be zero-valued; known halves are merged. Past the
// cap, new tenants map to the shared overflow state (and are remembered in
// the lookup maps, so each distinct tenant is absorbed exactly once).
// Caller must hold p.mu.
func (p *Plane) ensureLocked(id keys.TenantID, name string) *tenantState {
	if name != "" {
		if st, ok := p.byName[name]; ok {
			if id != 0 && st != p.overflow {
				if st.id == 0 {
					st.id = id
				}
				if _, ok := p.byID[id]; !ok {
					p.byID[id] = st
				}
			}
			return st
		}
	}
	if id != 0 {
		if st, ok := p.byID[id]; ok {
			return st
		}
	}
	if name == "" {
		name = id.String()
		if st, ok := p.byName[name]; ok {
			p.byID[id] = st
			return st
		}
	}
	if len(p.states) >= p.max {
		p.absorbed++
		if p.overflow == nil {
			p.overflow = p.newStateLocked(metric.OverflowLabelValue, 0, metric.DefaultObjective())
		}
		p.byName[name] = p.overflow
		if id != 0 {
			p.byID[id] = p.overflow
		}
		return p.overflow
	}
	st := p.newStateLocked(name, id, metric.DefaultObjective())
	p.byName[name] = st
	if id != 0 {
		p.byID[id] = st
	}
	p.states = append(p.states, st)
	return st
}

func (p *Plane) stateByID(id keys.TenantID) *tenantState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ensureLocked(id, "")
}

func (p *Plane) stateByName(name string) *tenantState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ensureLocked(0, name)
}

// RegisterTenant declares a tenant up front, binding its ID to its
// human-readable name so signals keyed by either converge on one series.
func (p *Plane) RegisterTenant(id keys.TenantID, name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureLocked(id, name)
}

// SetObjective declares a tenant's SLO, replacing the default one (and any
// accumulated SLO history — objectives are meant to be set at tenant
// creation).
func (p *Plane) SetObjective(name string, obj metric.Objective) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.ensureLocked(0, name)
	st.slo = metric.NewSLO(obj, metric.DefaultWindowWidth, metric.DefaultWindowCount)
}

// Absorbed returns how many distinct tenants were routed to the overflow
// pseudo-tenant.
func (p *Plane) Absorbed() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.absorbed
}

// TenantCount returns the number of distinct (non-overflow) tenants seen.
func (p *Plane) TenantCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.states)
}

// ConnOpened records an accepted, authenticated proxy connection.
func (p *Plane) ConnOpened(name string) {
	if p == nil {
		return
	}
	p.stateByName(name).conns.Inc(1)
}

// QueryDone records one completed SQL statement: its latency, and whether
// it errored. Feeds the labeled counters/histograms, the tenant's window
// ring, and its SLO.
func (p *Plane) QueryDone(id keys.TenantID, latency time.Duration, errored bool) {
	if p == nil {
		return
	}
	st := p.stateByID(id)
	result := "ok"
	if errored {
		result = "error"
	}
	p.queries.With(st.name, result).Inc(1)
	p.execLat.With(st.name).Record(latency)
	now := p.clock.Now()
	st.win.Observe(now, latency, errored)
	st.slo.Record(now, latency, errored)
}

// TxnRetry records one transaction retry.
func (p *Plane) TxnRetry(id keys.TenantID) {
	if p == nil {
		return
	}
	p.retries.With(p.stateByID(id).name).Inc(1)
}

// TxnCommit records one committed transaction by the path its commit took:
// "one_phase" (a single range committed the whole commit batch in one
// replicated command), "two_phase" (intents, then resolution), or
// "read_only" (nothing to commit).
func (p *Plane) TxnCommit(id keys.TenantID, path string) {
	if p == nil {
		return
	}
	p.commits.With(p.stateByID(id).name, path).Inc(1)
}

// TxnCommitRetry records one re-send of a commit batch whose previous
// attempt failed without saying whether it applied.
func (p *Plane) TxnCommitRetry(id keys.TenantID) {
	if p == nil {
		return
	}
	p.commitRetry.With(p.stateByID(id).name).Inc(1)
}

// Batch records one DistSender batch sent on behalf of the tenant.
func (p *Plane) Batch(id keys.TenantID) {
	if p == nil {
		return
	}
	p.batches.With(p.stateByID(id).name).Inc(1)
}

// AdmissionWait records the admission-queue wait of one request.
func (p *Plane) AdmissionWait(id keys.TenantID, wait time.Duration) {
	if p == nil {
		return
	}
	p.admWait.With(p.stateByID(id).name).Record(wait)
}

// AddRU records request-unit consumption (tenantcost wires its node-bucket
// consumption here).
func (p *Plane) AddRU(id keys.TenantID, ru float64) {
	if p == nil {
		return
	}
	p.ru.With(p.stateByID(id).name).Add(ru)
}

// ScaleEvent records an autoscaler decision for the tenant: "up", "down",
// or "suspend".
func (p *Plane) ScaleEvent(name, kind string) {
	if p == nil {
		return
	}
	p.scaleEvents.With(p.stateByName(name).name, kind).Inc(1)
}

// lookup returns the state for name without creating one: nil when the
// tenant has never been seen. Read paths use this so that rendering a
// debug page never perturbs the set of series.
func (p *Plane) lookup(name string) *tenantState {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if name == metric.OverflowLabelValue {
		return p.overflow
	}
	return p.byName[name]
}

// Rate returns the tenant's query rate (QPS) over the trailing span, or 0
// for an unknown tenant.
func (p *Plane) Rate(name string, now time.Time, span time.Duration) float64 {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	return st.win.Rate(now, span)
}

// P99 returns the tenant's p99 query latency over the trailing span, or 0
// for an unknown tenant.
func (p *Plane) P99(name string, now time.Time, span time.Duration) time.Duration {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	return st.win.Quantile(now, span, 0.99)
}

// BurnRate returns the tenant's SLO burn rate over the trailing span, or 0
// for an unknown tenant.
func (p *Plane) BurnRate(name string, now time.Time, span time.Duration) float64 {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	return st.slo.BurnRate(now, span)
}

// counterValue reads a labeled counter without creating the series.
func counterValue(v *metric.CounterVec, values ...string) int64 {
	if c := v.Peek(values...); c != nil {
		return c.Value()
	}
	return 0
}

// TxnCommits returns how many of the tenant's transactions committed by the
// given path (see TxnCommit).
func (p *Plane) TxnCommits(name, path string) int64 {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	return counterValue(p.commits, st.name, path)
}

// TxnCommitRetries returns how many times the tenant's commit batches were
// re-sent.
func (p *Plane) TxnCommitRetries(name string) int64 {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	return counterValue(p.commitRetry, st.name)
}

// RU returns the tenant's cumulative recorded request units.
func (p *Plane) RU(name string) float64 {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	if g := p.ru.Peek(st.name); g != nil {
		return g.Value()
	}
	return 0
}
