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
	"crdbserverless/internal/metric"
	"crdbserverless/internal/proxy"
	"crdbserverless/internal/server"
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
	// PodDraining: out of service; open sessions finish or migrate away.
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

// Pod is one SQL-node container. Its lifecycle is its node's: whether the
// node has a tenant, when it left service, and whether it has stopped.
type Pod struct {
	Node *server.SQLNode
}

// State returns the pod's lifecycle state, read from its node.
func (p *Pod) State() PodState {
	drainedAt, stopped := p.Node.Lifecycle()
	switch {
	case stopped:
		return PodStopped
	case !drainedAt.IsZero():
		return PodDraining
	case p.Node.Tenant() == nil:
		return PodWarm
	}
	return PodAssigned
}

// TenantName returns the assigned tenant name ("" while warm).
func (p *Pod) TenantName() string {
	if t := p.Node.Tenant(); t != nil {
		return t.Name
	}
	return ""
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
	Registry *core.Registry
	// Node configures each pod's SQL node; the orchestrator gives every
	// pod its own InstanceID. Node.Clock also times drains (real time when
	// nil).
	Node server.SQLNodeConfig
	// WarmPoolSize is the number of pre-warmed pods to maintain.
	WarmPoolSize int
	// Metrics receives the orchestrator's counters (orchestrator.*). A
	// fresh registry is created when nil.
	Metrics *metric.Registry
	// Faults, when non-nil, arms the orchestrator's fault-injection sites:
	// orchestrator.start.crash kills a pod's VM during cold start (creation
	// retries with a fresh pod), and orchestrator.pod.evict reclaims an
	// assigned pod's VM at the next Tick (the following directory lookup
	// re-assigns from the warm pool).
	//lint:allow deadsurface test seam: TestStartCrashRetriesWithFreshPod and TestPodEvictionRecoversViaLookup arm its sites
	Faults *faultinject.Registry
}

var errClosed = errors.New("orchestrator: closed")

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
		warm []*Pod
		// byTenant holds each tenant's pods not yet stopped. A tenant
		// without pods has no entry, so its keys are the tenants the
		// autoscaler walks.
		byTenant map[string][]*Pod
		// all holds every pod not yet stopped, in creation order.
		all []*Pod
		// resuming holds the assignment in flight for each tenant that
		// had no serving pod when a lookup came.
		resuming map[string]*resume
		closed   bool
	}
	instanceIDs atomic.Int64
}

// New returns an Orchestrator and fills its warm pool.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Node.Clock == nil {
		cfg.Node.Clock = timeutil.NewRealClock()
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
	o.mu.resuming = make(map[string]*resume)
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
		if o.addPod(pod, true) != nil {
			return nil
		}
	}
}

// addPod records a new pod in the fleet, and in the warm pool when warm. If
// Close ran while the pod started, nothing would ever stop it: addPod stops
// it and returns errClosed instead.
func (o *Orchestrator) addPod(pod *Pod, warm bool) error {
	o.mu.Lock()
	closed := o.mu.closed
	if !closed {
		if warm {
			o.mu.warm = append(o.mu.warm, pod)
		}
		o.mu.all = append(o.mu.all, pod)
	}
	o.mu.Unlock()
	if closed {
		o.stopPod(pod, true)
		return errClosed
	}
	return nil
}

// createPod provisions a pod and starts its SQL process and listener before
// any tenant is known (§4.3.1). An injected VM crash during startup
// (orchestrator.start.crash) discards the pod and retries with a fresh one,
// as the control plane would reschedule a crashed container.
func (o *Orchestrator) createPod() (*Pod, error) {
	const maxStartAttempts = 3
	var err error
	for attempt := 0; attempt < maxStartAttempts; attempt++ {
		nodeCfg := o.cfg.Node
		nodeCfg.InstanceID = o.instanceIDs.Add(1)
		pod := &Pod{Node: server.NewSQLNode(nodeCfg)}
		o.podsCreated.Inc(1)
		if err = o.cfg.Faults.MaybeErr("orchestrator.start.crash"); err == nil {
			err = pod.Node.Start()
		}
		if err == nil {
			return pod, nil
		}
		o.stopPod(pod, true)
	}
	return nil, fmt.Errorf("orchestrator: pod failed to start after %d attempts: %w", maxStartAttempts, err)
}

// WarmCount returns the warm pool size.
func (o *Orchestrator) WarmCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.mu.warm)
}

// Tenants returns the names of the tenants that have pods, sorted.
func (o *Orchestrator) Tenants() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.mu.byTenant))
	for name := range o.mu.byTenant {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
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
		return nil, errClosed
	}
	// Reuse a draining pod of this tenant, unless it has retired.
	for _, p := range o.mu.byTenant[t.Name] {
		if p.State() == PodDraining && p.Node.Undrain() {
			o.mu.Unlock()
			sp.Eventf("reused draining pod %d", p.Node.InstanceID())
			return p, nil
		}
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
		if err := o.addPod(pod, false); err != nil {
			return nil, err
		}
	} else {
		sp.Eventf("pulled warm pod %d", pod.Node.InstanceID())
	}
	// Stamp with the tenant (the "certificates arrive" moment).
	certCtx, certSp := trace.StartSpan(ctx, "orchestrator.cert_issue")
	err := pod.Node.AssignTenant(certCtx, t)
	certSp.Finish()
	if err != nil {
		o.stopPod(pod, true)
		return nil, err
	}
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
		victim.Node.Drain(false)
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

// Tick stops draining pods whose connections have closed (or whose drain
// timeout expired): "a node shuts down once all connections close or after
// 10 minutes" (§4.2.3).
func (o *Orchestrator) Tick() {
	o.mu.Lock()
	pods := append([]*Pod(nil), o.mu.all...)
	o.mu.Unlock()
	now := o.cfg.Node.Clock.Now()
	for _, p := range pods {
		switch drainedAt, _ := p.Node.Lifecycle(); {
		case !drainedAt.IsZero():
			// A draining pod keeps its connections, and stays reusable,
			// until they close or the drain timeout expires.
			timedOut := now.Sub(drainedAt) >= drainTimeout
			if (timedOut || p.Node.ConnCount() == 0) && o.stopPod(p, timedOut) {
				o.podsReaped.Inc(1)
			}
		case p.TenantName() != "" && o.cfg.Faults.Should("orchestrator.pod.evict"):
			// Injected eviction: the infrastructure reclaims the VM out from
			// under an assigned pod. The pod stops without draining; the next
			// directory lookup re-assigns the tenant from the warm pool.
			o.stopPod(p, true)
			o.podsReaped.Inc(1)
			o.podsEvicted.Inc(1)
		}
	}
}

// stopPod is the one way a pod stops, and the pod leaves the fleet at once.
// With force its node closes at once, sessions and all: an eviction, the
// drain timeout, a pod that failed to start or take its tenant, and Close.
// Otherwise the node retires and stops itself once no session is open or
// being bound: at once if none is, else when its last session ends. stopPod
// reports whether the pod was still one of its tenant's pods.
func (o *Orchestrator) stopPod(p *Pod, force bool) bool {
	if force {
		p.Node.Close()
	} else {
		p.Node.Drain(true)
	}
	name := p.TenantName()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.mu.all = removePod(o.mu.all, p)
	list := o.mu.byTenant[name]
	if !slices.Contains(list, p) {
		return false
	}
	if list = removePod(list, p); len(list) > 0 {
		o.mu.byTenant[name] = list
	} else {
		delete(o.mu.byTenant, name)
	}
	return true
}

// removePod drops p from list in place, keeping the order of the rest: Tick
// consults the fault registry per pod in list order.
func removePod(list []*Pod, p *Pod) []*Pod {
	if i := slices.Index(list, p); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// SuspendTenant scales the tenant to zero in this region, the
// scale-to-zero transition of §4.2.3. Its pods leave the pod map at once, so
// no lookup returns or reuses them, and each retires: it stops at once if it
// has no session, else when its last session ends. No record changes; a
// tenant without pods here is suspended here.
func (o *Orchestrator) SuspendTenant(name string) {
	o.mu.Lock()
	pods := o.mu.byTenant[name]
	delete(o.mu.byTenant, name)
	o.mu.Unlock()
	for _, p := range pods {
		o.stopPod(p, false)
		o.suspendedPods.Inc(1)
	}
}

// resume is one in-flight pod assignment for a tenant with no serving pod;
// lookups that arrive meanwhile wait for it instead of pulling pods of
// their own.
type resume struct {
	done chan struct{}
	err  error
}

// Lookup implements proxy.Directory: it returns the tenant's SQL nodes,
// assigning one first if none serves. When the tenant has no pods in this
// region at all, that is the cold start a connection to a scaled-to-zero
// tenant triggers (§4.2.3).
func (o *Orchestrator) Lookup(ctx context.Context, tenantName string) ([]proxy.Backend, error) {
	t, err := o.cfg.Registry.GetByName(tenantName)
	if err != nil {
		return nil, err
	}
	if t.Dropped {
		return nil, core.ErrTenantDropped
	}
	for {
		if err := o.ensureServing(ctx, t); err != nil {
			return nil, err
		}
		// Empty when a suspend took the pods between the two reads.
		var out []proxy.Backend
		for _, p := range o.servingPods(tenantName) {
			out = append(out, proxy.Backend{Addr: p.Node.Addr(), Obs: p.Node.Obs()})
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// ensureServing assigns the tenant a pod unless one serves. Concurrent
// callers share one assignment, so a burst of connections to a tenant
// scaled to zero takes one pod from the warm pool, not one each.
func (o *Orchestrator) ensureServing(ctx context.Context, t *core.Tenant) error {
	o.mu.Lock()
	if r, ok := o.mu.resuming[t.Name]; ok {
		o.mu.Unlock()
		select {
		case <-r.done:
			return r.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	pods := o.mu.byTenant[t.Name]
	if slices.ContainsFunc(pods, func(p *Pod) bool { return p.State() == PodAssigned }) {
		o.mu.Unlock()
		return nil
	}
	r := &resume{done: make(chan struct{})}
	o.mu.resuming[t.Name] = r
	o.mu.Unlock()

	if len(pods) == 0 {
		trace.SpanFromContext(ctx).Eventf("cold resume: tenant %s was scaled to zero", t.Name)
		o.coldResumes.Inc(1)
	}
	_, r.err = o.AssignPod(ctx, t)
	o.mu.Lock()
	delete(o.mu.resuming, t.Name)
	o.mu.Unlock()
	close(r.done)
	return r.err
}

// Close stops every pod.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	o.mu.closed = true
	pods := append([]*Pod(nil), o.mu.all...)
	o.mu.Unlock()
	for _, p := range pods {
		o.stopPod(p, true)
	}
}
