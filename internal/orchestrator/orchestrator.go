// Package orchestrator plays the role of the Kubernetes-based control plane
// of §4.2.1: it manages pods hosting SQL node processes, maintains the
// pre-warmed pool that makes sub-second cold starts possible (§4.3.1),
// assigns pods to tenants (stamping them with tenant identity, the analogue
// of delivering mTLS certificates to the pod file system), drains and reaps
// pods on scale-down, and suspends idle tenants to zero compute.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/proxy"
	"crdbserverless/internal/region"
	"crdbserverless/internal/server"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// PodState tracks a pod through its lifecycle.
type PodState int

// Pod lifecycle states.
const (
	// PodWarm: process pre-started, TCP listener open, no tenant assigned.
	PodWarm PodState = iota
	// PodAssigned: stamped with a tenant and serving.
	PodAssigned
	// PodDraining: excluded from routing; connections migrate away.
	PodDraining
	// PodStopped: terminated.
	PodStopped
)

// String implements fmt.Stringer.
func (s PodState) String() string {
	switch s {
	case PodWarm:
		return "warm"
	case PodAssigned:
		return "assigned"
	case PodDraining:
		return "draining"
	case PodStopped:
		return "stopped"
	default:
		return fmt.Sprintf("PodState(%d)", int(s))
	}
}

// Pod is one SQL-node container.
type Pod struct {
	Node *server.SQLNode

	mu         sync.Mutex
	state      PodState
	tenant     string
	drainSince time.Time
}

// State returns the pod's lifecycle state.
func (p *Pod) State() PodState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// TenantName returns the assigned tenant name ("" while warm).
func (p *Pod) TenantName() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenant
}

const (
	// drainTimeout force-stops a draining pod that still has connections
	// (§4.2.3).
	drainTimeout = 10 * time.Minute
	// sqlNodeVCPUs is each SQL node's allocation, the paper's 4.
	sqlNodeVCPUs = 4
)

// Config configures an Orchestrator.
type Config struct {
	Cluster  *kvserver.Cluster
	Registry *core.Registry
	Buckets  *tenantcost.BucketServer
	Clock    timeutil.Clock
	Region   region.Region
	// WarmPoolSize is the number of pre-warmed pods to maintain.
	WarmPoolSize int
	// PreStartProcess enables the §4.3.1 optimization: the SQL process (and
	// its TCP listener) starts when the pod is created, before any tenant
	// is known. Disabled, the process starts only at assignment — the
	// unoptimized baseline of Fig 10a.
	PreStartProcess bool
	// Metrics receives the orchestrator's counters (orchestrator.*). A
	// fresh registry is created when nil.
	Metrics *metric.Registry
	// RevivalSecret for session migration.
	RevivalSecret []byte
	// Tracer is handed to each SQL node so request traces propagated by
	// the proxy continue through statement execution.
	Tracer *trace.Tracer
	// Obs is handed to each SQL node so its executor, coordinator, and
	// DistSender report per-tenant signals to the observability plane.
	Obs *tenantobs.Plane
	// Faults, when non-nil, arms the orchestrator's fault-injection sites:
	// orchestrator.start.crash kills a pod's VM during cold start (creation
	// retries with a fresh pod), and orchestrator.pod.evict reclaims an
	// assigned pod's VM at the next Tick (the following directory lookup
	// re-assigns from the warm pool).
	Faults *faultinject.Registry
}

// Orchestrator manages the pod fleet for one region.
type Orchestrator struct {
	cfg Config

	podsCreated   *metric.Counter
	podsAssigned  *metric.Counter
	podsReaped    *metric.Counter
	coldResumes   *metric.Counter
	suspendedPods *metric.Counter
	podsEvicted   *metric.Counter

	mu struct {
		sync.Mutex
		warm     []*Pod
		byTenant map[string][]*Pod
		// all holds every pod not yet stopped, in creation order.
		all    []*Pod
		closed bool
	}
	instanceIDs atomic.Int64
}

// New returns an Orchestrator and fills its warm pool.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metric.NewRegistry()
	}
	o := &Orchestrator{cfg: cfg}
	o.podsCreated = cfg.Metrics.NewCounter("orchestrator.pods_created")
	o.podsAssigned = cfg.Metrics.NewCounter("orchestrator.pods_assigned")
	o.podsReaped = cfg.Metrics.NewCounter("orchestrator.pods_reaped")
	o.coldResumes = cfg.Metrics.NewCounter("orchestrator.cold_resumes")
	o.suspendedPods = cfg.Metrics.NewCounter("orchestrator.pods_suspended")
	o.podsEvicted = cfg.Metrics.NewCounter("orchestrator.pods_evicted")
	o.mu.byTenant = make(map[string][]*Pod)
	if err := o.EnsureWarm(cfg.WarmPoolSize); err != nil {
		return nil, err
	}
	return o, nil
}

// NodeVCPUs returns the per-SQL-node vCPU allocation.
func (o *Orchestrator) NodeVCPUs() int { return sqlNodeVCPUs }

// EnsureWarm tops the warm pool up to n pods.
func (o *Orchestrator) EnsureWarm(n int) error {
	for {
		o.mu.Lock()
		if o.mu.closed || len(o.mu.warm) >= n {
			o.mu.Unlock()
			return nil
		}
		o.mu.Unlock()
		pod, err := o.createPod()
		if err != nil {
			return err
		}
		o.mu.Lock()
		o.mu.warm = append(o.mu.warm, pod)
		o.mu.all = append(o.mu.all, pod)
		o.mu.Unlock()
	}
}

// createPod provisions a pod. With PreStartProcess the SQL process starts
// (and opens its listener) immediately. An injected VM crash during startup
// (orchestrator.start.crash) discards the pod and retries with a fresh one,
// as the control plane would reschedule a crashed container.
func (o *Orchestrator) createPod() (*Pod, error) {
	const maxStartAttempts = 3
	var lastErr error
	for attempt := 0; attempt < maxStartAttempts; attempt++ {
		node := server.NewSQLNode(server.SQLNodeConfig{
			InstanceID:    o.instanceIDs.Add(1),
			Cluster:       o.cfg.Cluster,
			Region:        o.cfg.Region,
			Buckets:       o.cfg.Buckets,
			Clock:         o.cfg.Clock,
			RevivalSecret: o.cfg.RevivalSecret,
			Tracer:        o.cfg.Tracer,
			Obs:           o.cfg.Obs,
		})
		pod := &Pod{Node: node, state: PodWarm}
		o.podsCreated.Inc(1)
		if err := o.cfg.Faults.MaybeErr("orchestrator.start.crash"); err != nil {
			node.Close()
			lastErr = err
			continue
		}
		if o.cfg.PreStartProcess {
			if err := node.Start(); err != nil {
				node.Close()
				lastErr = err
				continue
			}
		}
		return pod, nil
	}
	return nil, fmt.Errorf("orchestrator: pod failed to start after %d attempts: %w", maxStartAttempts, lastErr)
}

// WarmCount returns the warm pool size.
func (o *Orchestrator) WarmCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.mu.warm)
}

// PodsForTenant returns the tenant's non-stopped pods.
func (o *Orchestrator) PodsForTenant(name string) []*Pod {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Pod(nil), o.mu.byTenant[name]...)
}

// AssignPod pulls a pod for the tenant: draining pods of the same tenant are
// reused first (§4.2.3: "draining nodes are reused before pre-warmed ones"),
// then warm pods, then a cold-created pod.
func (o *Orchestrator) AssignPod(ctx context.Context, t *core.Tenant) (*Pod, error) {
	ctx, sp := trace.StartSpan(ctx, "orchestrator.assign_pod")
	defer sp.Finish()
	sp.SetAttr("orchestrator.tenant", t.Name)
	o.mu.Lock()
	if o.mu.closed {
		o.mu.Unlock()
		return nil, errors.New("orchestrator: closed")
	}
	// Reuse a draining pod of this tenant.
	for _, p := range o.mu.byTenant[t.Name] {
		p.mu.Lock()
		if p.state == PodDraining {
			p.state = PodAssigned
			p.Node.Undrain()
			p.mu.Unlock()
			o.mu.Unlock()
			sp.Eventf("reused draining pod %d", p.Node.InstanceID())
			return p, nil
		}
		p.mu.Unlock()
	}
	// Pull from the warm pool.
	var pod *Pod
	if len(o.mu.warm) > 0 {
		pod = o.mu.warm[0]
		o.mu.warm = o.mu.warm[1:]
	}
	o.mu.Unlock()

	if pod == nil {
		sp.Eventf("warm pool empty: creating pod cold")
		var err error
		pod, err = o.createPod()
		if err != nil {
			return nil, err
		}
		o.mu.Lock()
		o.mu.all = append(o.mu.all, pod)
		o.mu.Unlock()
	} else {
		sp.Eventf("pulled warm pod %d", pod.Node.InstanceID())
	}
	// Unoptimized flow: the process starts only now.
	if !o.cfg.PreStartProcess {
		if err := pod.Node.Start(); err != nil {
			return nil, err
		}
	}
	// Stamp with the tenant (the "certificates arrive" moment).
	certCtx, certSp := trace.StartSpan(ctx, "orchestrator.cert_issue")
	if err := pod.Node.AssignTenant(certCtx, t); err != nil {
		certSp.Finish()
		return nil, err
	}
	certSp.Finish()
	pod.mu.Lock()
	pod.state = PodAssigned
	pod.tenant = t.Name
	pod.mu.Unlock()
	o.podsAssigned.Inc(1)
	o.mu.Lock()
	o.mu.byTenant[t.Name] = append(o.mu.byTenant[t.Name], pod)
	o.mu.Unlock()
	// Backfill the warm pool.
	//lint:allow faulterr warm-pool backfill is asynchronous best-effort; a failure surfaces as a slower next cold start, not a lost request
	go o.EnsureWarm(o.cfg.WarmPoolSize)
	return pod, nil
}

// ScaleTenant reconciles the tenant's assigned pod count to want. Scale-down
// drains the pods with the fewest connections. It returns the pods now
// serving.
func (o *Orchestrator) ScaleTenant(ctx context.Context, t *core.Tenant, want int) ([]*Pod, error) {
	if want < 0 {
		want = 0
	}
	for {
		serving := o.servingPods(t.Name)
		if len(serving) == want {
			return serving, nil
		}
		if len(serving) < want {
			if _, err := o.AssignPod(ctx, t); err != nil {
				return nil, err
			}
			continue
		}
		// Scale down: drain the pod with the fewest connections.
		victim := serving[0]
		for _, p := range serving[1:] {
			if p.Node.ConnCount() < victim.Node.ConnCount() {
				victim = p
			}
		}
		victim.mu.Lock()
		victim.state = PodDraining
		victim.drainSince = o.cfg.Clock.Now()
		victim.mu.Unlock()
		victim.Node.Drain()
	}
}

func (o *Orchestrator) servingPods(name string) []*Pod {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []*Pod
	for _, p := range o.mu.byTenant[name] {
		if p.State() == PodAssigned {
			out = append(out, p)
		}
	}
	return out
}

// Tick reaps draining pods whose connections have closed (or whose drain
// timeout expired): "a node shuts down once all connections close or after
// 10 minutes" (§4.2.3).
func (o *Orchestrator) Tick() {
	o.mu.Lock()
	pods := append([]*Pod(nil), o.mu.all...)
	o.mu.Unlock()
	now := o.cfg.Clock.Now()
	for _, p := range pods {
		p.mu.Lock()
		if p.state == PodAssigned && o.cfg.Faults.Should("orchestrator.pod.evict") {
			// Injected eviction: the infrastructure reclaims the VM out from
			// under an assigned pod. The pod stops without draining; the next
			// directory lookup re-assigns the tenant from the warm pool.
			p.state = PodStopped
			p.mu.Unlock()
			o.stopPod(p)
			o.podsEvicted.Inc(1)
			continue
		}
		if p.state == PodDraining &&
			(p.Node.ConnCount() == 0 || now.Sub(p.drainSince) >= drainTimeout) {
			p.state = PodStopped
			p.mu.Unlock()
			o.stopPod(p)
			continue
		}
		p.mu.Unlock()
	}
}

func (o *Orchestrator) stopPod(p *Pod) {
	o.podsReaped.Inc(1)
	p.Node.Close()
	o.mu.Lock()
	defer o.mu.Unlock()
	name := p.TenantName()
	if list, ok := o.mu.byTenant[name]; ok {
		o.mu.byTenant[name] = removePod(list, p)
	}
	o.mu.all = removePod(o.mu.all, p)
}

// removePod drops p from list in place, keeping the order of the rest: Tick
// consults the fault registry per pod in list order.
func removePod(list []*Pod, p *Pod) []*Pod {
	if i := slices.Index(list, p); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// SuspendTenant scales the tenant to zero and marks it suspended: the
// scale-to-zero transition of §4.2.3. All pods stop immediately.
func (o *Orchestrator) SuspendTenant(ctx context.Context, name string) error {
	o.mu.Lock()
	pods := append([]*Pod(nil), o.mu.byTenant[name]...)
	delete(o.mu.byTenant, name)
	o.mu.Unlock()
	for _, p := range pods {
		p.mu.Lock()
		p.state = PodStopped
		p.mu.Unlock()
		p.Node.Close()
		o.suspendedPods.Inc(1)
	}
	// A stopped pod is never started again; keeping it would grow all, and
	// the walk Tick makes over it, by a pod per resume/suspend cycle.
	o.mu.Lock()
	for _, p := range pods {
		o.mu.all = removePod(o.mu.all, p)
	}
	o.mu.Unlock()
	return o.cfg.Registry.Suspend(ctx, name)
}

// Lookup implements proxy.Directory: it returns the tenant's SQL nodes,
// resuming a suspended tenant by pulling a warm pod first — the cold-start
// flow a connection to a scaled-to-zero tenant triggers (§4.2.3).
func (o *Orchestrator) Lookup(ctx context.Context, tenantName string) ([]proxy.Backend, error) {
	t, err := o.cfg.Registry.GetByName(tenantName)
	if err != nil {
		return nil, err
	}
	if t.State == core.StateDropped {
		return nil, core.ErrTenantDropped
	}
	if t.State == core.StateSuspended {
		trace.SpanFromContext(ctx).Eventf("cold resume: tenant %s was scaled to zero", tenantName)
		if err := o.cfg.Registry.Resume(ctx, tenantName); err != nil {
			return nil, err
		}
		t.State = core.StateActive
		o.coldResumes.Inc(1)
	}
	if len(o.servingPods(tenantName)) == 0 {
		if _, err := o.AssignPod(ctx, t); err != nil {
			return nil, err
		}
	}
	var out []proxy.Backend
	for _, p := range o.servingPods(tenantName) {
		out = append(out, proxy.Backend{
			ID:       p.Node.InstanceID(),
			Addr:     p.Node.Addr(),
			Draining: p.Node.Draining(),
		})
	}
	return out, nil
}

// Close stops every pod.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	o.mu.closed = true
	pods := append([]*Pod(nil), o.mu.all...)
	o.mu.Unlock()
	for _, p := range pods {
		p.Node.Close()
	}
}
