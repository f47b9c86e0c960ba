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
// A tenant's state is created once, by ID: RegisterTenant binds the ID to
// the tenant's name when its first pod or session binds it, and Tenant
// resolves an ID the KV side meets that was never bound, naming it by the
// ID. Signals are recorded through that state's handle, a *Tenant, held by
// whatever bound the tenant: a SQL pod keeps the one it registered and hands
// it to its node bucket, the proxy's backends and the autoscaler; a
// DistSender, coordinator or executor resolves it by ID when made, and a KV
// node's admission queue when it first admits the tenant's work. Only the
// drill-down page looks a tenant up by name. A handle holds the tenant's
// window ring and its children of the labeled vectors, so recording a signal
// takes neither the plane's lock nor a vector's and joins no label values:
// the plane lock is taken only to register a tenant (resolve a handle) and
// to render. Each labeled child is looked up in its vector on the tenant's
// first signal of that kind, as it was when every signal looked it up, so
// the set of series and the order they appear in do not depend on when
// handles are resolved.
//
// Every method is nil-safe: a nil *Plane resolves nil handles and a nil
// *Tenant records nothing, so instrumented packages call unconditionally and
// tests that don't care about observability pay nothing, the same contract
// as nil trace spans.
//
// Tenant cardinality is hard-capped here, and only here: the plane makes
// every labeled vector, and the vectors themselves are uncapped. Once
// MaxTenants distinct tenants have been seen, further tenants collapse into
// a single __overflow__ pseudo-tenant (windows, SLO, and every labeled
// series included), so memory stays bounded no matter how many tenants a
// run creates, and the split is first-arrival deterministic.
package tenantobs

import (
	"slices"
	"sync"
	"sync/atomic"
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

// OverflowLabelValue is the tenant label of the state every tenant past
// the cap shares.
const OverflowLabelValue = "__overflow__"

// defaultMaxTenants is the cap when Config.MaxTenants is unset. 2048 holds
// the "thousands of tenants per cluster" regime the paper targets while
// bounding each vector to a few MB.
const defaultMaxTenants = 2048

// objective is every tenant's SLO: 99.9% of queries good within 100ms.
var objective = metric.Objective{LatencyThreshold: 100 * time.Millisecond, Target: 0.999}

// Tenant is one tenant's handle on the plane: its window ring, whose
// observations are marked bad against objective, so rate, p99, good fraction
// and burn all read it, and its children of the labeled vectors. A nil
// *Tenant records nothing. Safe for concurrent use.
type Tenant struct {
	p    *Plane
	name string // label value; OverflowLabelValue for the shared overflow state
	win  *metric.Windowed

	conns *metric.Counter // proxy.tenant_conns{tenant}, made with the state
	// The children below are looked up on first use (see counter).
	queries     [2]atomic.Pointer[metric.Counter] // result ok, error
	execLat     atomic.Pointer[metric.Histogram]
	retries     atomic.Pointer[metric.Counter]
	commits     [len(commitPaths)]atomic.Pointer[metric.Counter]
	commitRetry atomic.Pointer[metric.Counter]
	batches     atomic.Pointer[metric.Counter]
	admWait     atomic.Pointer[metric.Histogram]
	ru          atomic.Pointer[metric.Gauge]
}

// commitPaths are the paths a commit takes, one commits child each.
var commitPaths = [...]string{"one_phase", "two_phase", "read_only"}

// counter, histogram and gauge return the vector child held in slot,
// looking it up in v with the given label values on first use. Two first
// uses at once find the same child, so either may store it. (A generic
// version would call With through its dictionary, which makes the label
// values escape: one allocation per signal.)
func counter(slot *atomic.Pointer[metric.Counter], v *metric.CounterVec, values ...string) *metric.Counter {
	if m := slot.Load(); m != nil {
		return m
	}
	m := v.With(values...)
	slot.Store(m)
	return m
}

func histogram(slot *atomic.Pointer[metric.Histogram], v *metric.HistogramVec, values ...string) *metric.Histogram {
	if m := slot.Load(); m != nil {
		return m
	}
	m := v.With(values...)
	slot.Store(m)
	return m
}

func gauge(slot *atomic.Pointer[metric.Gauge], v *metric.GaugeVec, values ...string) *metric.Gauge {
	if m := slot.Load(); m != nil {
		return m
	}
	m := v.With(values...)
	slot.Store(m)
	return m
}

// Plane is the tenant observability plane. Safe for concurrent use.
//
// Each tenant's window ring holds one hour of 15-second windows.
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

	// mu guards the tenant registry below; no signal takes it.
	mu     sync.Mutex
	byID   map[keys.TenantID]*Tenant
	byName map[string]*Tenant // for the drill-down page alone
	// states holds the non-overflow states in creation order.
	states   []*Tenant
	overflow *Tenant // lazily created at the cap
	absorbed int64   // distinct tenants routed to overflow
}

// New builds a Plane and registers its labeled vectors on cfg.Registry.
func New(cfg Config) *Plane {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = defaultMaxTenants
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
		byID:        make(map[keys.TenantID]*Tenant),
		byName:      make(map[string]*Tenant),
	}
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

// newStateLocked builds the state for name.
func (p *Plane) newStateLocked(name string) *Tenant {
	return &Tenant{
		p:     p,
		name:  name,
		win:   metric.NewWindowed(),
		conns: p.conns.With(name),
	}
}

// ensureLocked returns the state of tenant id, creating it under name if
// the tenant is new. Past the cap a new tenant maps to the shared overflow
// state, and is remembered, so each distinct tenant is absorbed exactly
// once. The overflow label names that state, not a tenant: it absorbs
// nothing, and below the cap it registers no state of its own, whose series
// the overflow state's would share. Caller must hold p.mu.
func (p *Plane) ensureLocked(id keys.TenantID, name string) *Tenant {
	if name == OverflowLabelValue {
		return p.overflowLocked()
	}
	if st, ok := p.byID[id]; ok {
		// A state Tenant(id) made under the fallback name is found by the
		// name a later registration gives it too; its series keep the
		// fallback label.
		if st.name != name {
			p.byName[name] = st
		}
		return st
	}
	var st *Tenant
	if len(p.states) < p.max {
		st = p.newStateLocked(name)
		p.states = append(p.states, st)
	} else {
		p.absorbed++
		st = p.overflowLocked()
	}
	p.byID[id] = st
	p.byName[name] = st
	return st
}

// overflowLocked returns the shared overflow state, creating it if needed.
// Caller must hold p.mu.
func (p *Plane) overflowLocked() *Tenant {
	if p.overflow == nil {
		p.overflow = p.newStateLocked(OverflowLabelValue)
	}
	return p.overflow
}

// RegisterTenant binds a tenant's ID to its human-readable name, the label
// of its series, and returns its handle. The first pod or session of the
// tenant calls it; a later call returns the same handle.
func (p *Plane) RegisterTenant(id keys.TenantID, name string) *Tenant {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ensureLocked(id, name)
}

// Tenant returns the handle of the tenant with the given ID, registering it
// under its ID's decimal form if it was never registered by name.
func (p *Plane) Tenant(id keys.TenantID) *Tenant {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Checked here too so that the fallback name is formatted, an
	// allocation, only for a new tenant.
	if st, ok := p.byID[id]; ok {
		return st
	}
	return p.ensureLocked(id, id.String())
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

// Now returns the plane's clock reading; the zero time when t is nil.
func (t *Tenant) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.p.clock.Now()
}

// ConnOpened records an accepted, authenticated proxy connection.
func (t *Tenant) ConnOpened() {
	if t == nil {
		return
	}
	t.conns.Inc(1)
}

// QueryDone records one completed SQL statement: its latency, and whether
// it errored. Feeds the labeled counters/histograms and the tenant's window
// ring, where the statement is bad if it errored or missed the objective's
// latency threshold.
func (t *Tenant) QueryDone(latency time.Duration, errored bool) {
	if t == nil {
		return
	}
	p := t.p
	if errored {
		counter(&t.queries[1], p.queries, t.name, "error").Inc(1)
	} else {
		counter(&t.queries[0], p.queries, t.name, "ok").Inc(1)
	}
	histogram(&t.execLat, p.execLat, t.name).Record(latency)
	t.win.Observe(p.clock.Now(), latency, errored || latency > objective.LatencyThreshold)
}

// TxnRetry records one transaction retry.
func (t *Tenant) TxnRetry() {
	if t == nil {
		return
	}
	counter(&t.retries, t.p.retries, t.name).Inc(1)
}

// TxnCommit records one committed transaction by the path its commit took:
// "one_phase" (a single range committed the whole commit batch in one
// replicated command), "two_phase" (intents, then resolution), or
// "read_only" (nothing to commit).
func (t *Tenant) TxnCommit(path string) {
	if t == nil {
		return
	}
	i := slices.Index(commitPaths[:], path)
	if i < 0 {
		panic("tenantobs: unknown commit path " + path)
	}
	counter(&t.commits[i], t.p.commits, t.name, path).Inc(1)
}

// TxnCommitRetry records one re-send of a commit batch whose previous
// attempt failed without saying whether it applied.
func (t *Tenant) TxnCommitRetry() {
	if t == nil {
		return
	}
	counter(&t.commitRetry, t.p.commitRetry, t.name).Inc(1)
}

// Batch records one DistSender batch sent on behalf of the tenant.
func (t *Tenant) Batch() {
	if t == nil {
		return
	}
	counter(&t.batches, t.p.batches, t.name).Inc(1)
}

// AdmissionWait records the admission-queue wait of one request.
func (t *Tenant) AdmissionWait(wait time.Duration) {
	if t == nil {
		return
	}
	histogram(&t.admWait, t.p.admWait, t.name).Record(wait)
}

// AddRU records request-unit consumption (tenantcost wires its node-bucket
// consumption here).
func (t *Tenant) AddRU(ru float64) {
	if t == nil {
		return
	}
	gauge(&t.ru, t.p.ru, t.name).Add(ru)
}

// ScaleEvent records an autoscaler decision for the tenant: "up", "down",
// or "suspend". Decisions are rare, so the handle keeps no child for them.
func (t *Tenant) ScaleEvent(kind string) {
	if t == nil {
		return
	}
	t.p.scaleEvents.With(t.name, kind).Inc(1)
}

// lookup returns the state for name without creating one: nil when the
// tenant has never been seen. Only the drill-down page resolves a tenant by
// name.
func (p *Plane) lookup(name string) *Tenant {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if name == OverflowLabelValue {
		return p.overflow
	}
	return p.byName[name]
}

// P99 returns the tenant's p99 query latency over the trailing span; 0 when
// t is nil.
func (t *Tenant) P99(now time.Time, span time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	return t.win.Quantile(now, span, 0.99)
}

// BurnRate returns the tenant's SLO burn rate over the trailing span; 0 when
// t is nil.
func (t *Tenant) BurnRate(now time.Time, span time.Duration) float64 {
	if t == nil {
		return 0
	}
	count, bad, _ := t.win.Totals(now, span)
	return objective.Burn(count, bad)
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
func (t *Tenant) TxnCommits(path string) int64 {
	if t == nil {
		return 0
	}
	return counterValue(t.p.commits, t.name, path)
}

// TxnCommitRetries returns how many times the tenant's commit batches were
// re-sent.
func (t *Tenant) TxnCommitRetries() int64 {
	if t == nil {
		return 0
	}
	return counterValue(t.p.commitRetry, t.name)
}

// RU returns the tenant's cumulative recorded request units.
func (t *Tenant) RU() float64 {
	if t == nil {
		return 0
	}
	if g := t.p.ru.Peek(t.name); g != nil {
		return g.Value()
	}
	return 0
}
