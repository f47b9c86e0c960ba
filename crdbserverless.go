// Package crdbserverless is a from-scratch reproduction of "CockroachDB
// Serverless: Sub-second Scaling from Zero with Multi-region Cluster
// Virtualization" (SIGMOD-Companion 2025): a multi-tenant, serverless,
// multi-region SQL database built as cluster virtualization over a shared
// transactional KV layer.
//
// A Serverless value assembles the whole system: the shared KV cluster
// (ranges, replication, admission control), the cluster-virtualization layer
// (tenant keyspaces and the SQL/KV security boundary), and the per-region
// serving fabric (routing proxies, pre-warmed SQL node pools, autoscalers).
//
// Quickstart:
//
//	srv, _ := crdbserverless.New(crdbserverless.Options{})
//	defer srv.Close()
//	srv.CreateTenant(ctx, "acme", crdbserverless.TenantOptions{})
//	conn, _ := srv.Connect("acme", "")
//	conn.Query("CREATE TABLE t (id INT PRIMARY KEY, v STRING)")
package crdbserverless

import (
	"context"
	"fmt"
	"time"

	"crdbserverless/internal/autoscaler"
	"crdbserverless/internal/core"
	"crdbserverless/internal/debug"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/proxy"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/region"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
	"crdbserverless/internal/txn"
	"crdbserverless/internal/wire"
)

// Re-exported types so applications only import this package.
type (
	// Tenant is a virtual cluster's control-plane record.
	Tenant = core.Tenant
	// TenantOptions configure CreateTenant.
	TenantOptions = core.TenantOptions
	// Region names a cloud region.
	Region = region.Region
	// Client is a SQL connection.
	Client = wire.Client
	// Result is a statement result returned by Client.Query.
	Result = wire.Result
	// Session is an in-process SQL session (benchmarks bypass the wire).
	Session = sql.Session
	// Datum is a SQL value.
	Datum = sql.Datum
)

// Datum constructors, re-exported.
var (
	// DInt makes an INT datum.
	DInt = sql.DInt
	// DString makes a STRING datum.
	DString = sql.DString
	// DFloat makes a FLOAT datum.
	DFloat = sql.DFloat
	// DBool makes a BOOL datum.
	DBool = sql.DBool
)

const (
	// kvNodeVCPUs is each KV node's CPU capacity.
	kvNodeVCPUs = 8
	// warmPoolSize is the pre-warmed SQL pod pool per region (§4.3.1).
	warmPoolSize = 4
)

// Options configure a Serverless deployment.
type Options struct {
	// Regions to deploy in. Defaults to a single region, "us-central1".
	// Multi-region deployments get one proxy/orchestrator/autoscaler per
	// region over one global KV cluster (§4.2.5).
	Regions []Region
	// KVNodesPerRegion is the shared KV fleet size per region. Default 3.
	KVNodesPerRegion int
	// AdmissionControl enables per-node admission control (§5.1).
	AdmissionControl bool
	// Clock defaults to the real clock; experiments pass a manual clock.
	Clock timeutil.Clock
	// TraceSeed seeds the deployment tracer's ID generator; two deployments
	// built with the same seed (and the same workload) produce identical
	// trace and span IDs. Defaults to 1.
	TraceSeed int64
}

// Serverless is a running deployment.
type Serverless struct {
	opts     Options
	topology *region.Topology

	cluster  *kvserver.Cluster
	registry *core.Registry
	buckets  *tenantcost.BucketServer

	// tracer is the deployment-wide request tracer; metrics is the
	// deployment-level registry (trace.* counters live here), while each
	// region's orchestrator and proxy share a per-region registry so the
	// same metric names can repeat across regions.
	tracer        *trace.Tracer
	metrics       *metric.Registry
	regionMetrics map[Region]*metric.Registry

	// obs is the tenant observability plane: per-tenant labeled metrics on
	// the deployment registry, windowed time series, and SLO burn rates,
	// surfaced at /debug/tenantz and /debug/slo.
	obs *tenantobs.Plane

	orchestrators map[Region]*orchestrator.Orchestrator
	autoscalers   map[Region]*autoscaler.Autoscaler
	proxies       map[Region]*proxy.Proxy
}

// New assembles and starts a deployment.
func New(opts Options) (*Serverless, error) {
	if len(opts.Regions) == 0 {
		opts.Regions = []Region{"us-central1"}
	}
	if opts.KVNodesPerRegion <= 0 {
		opts.KVNodesPerRegion = 3
	}
	if opts.Clock == nil {
		opts.Clock = timeutil.NewRealClock()
	}
	if opts.TraceSeed == 0 {
		opts.TraceSeed = 1
	}
	s := &Serverless{
		opts:          opts,
		topology:      region.DefaultTopology(),
		metrics:       metric.NewRegistry(),
		regionMetrics: make(map[Region]*metric.Registry),
		orchestrators: make(map[Region]*orchestrator.Orchestrator),
		autoscalers:   make(map[Region]*autoscaler.Autoscaler),
		proxies:       make(map[Region]*proxy.Proxy),
	}
	s.tracer = trace.New(trace.Options{Clock: opts.Clock, Seed: opts.TraceSeed, Metrics: s.metrics})
	s.obs = tenantobs.New(tenantobs.Config{Registry: s.metrics, Clock: opts.Clock})

	// The shared KV cluster spans all regions. Every node's engine shares
	// one set of read-path counters on the deployment registry: the
	// lsm.reads / lsm.bloom.filtered / lsm.tables.probed exposition is
	// cluster-wide, matching how the trace.* counters are aggregated.
	lsmReadMetrics := lsm.NewReadMetrics(s.metrics)
	lsmWriteMetrics := lsm.NewWriteMetrics(s.metrics)
	commitMetrics := raftlite.NewCommitMetrics(s.metrics)
	var nodes []*kvserver.Node
	id := kvserver.NodeID(1)
	for _, r := range opts.Regions {
		for i := 0; i < opts.KVNodesPerRegion; i++ {
			nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
				ID:     id,
				VCPUs:  kvNodeVCPUs,
				Region: string(r),
				Clock:  opts.Clock,
				LSM: lsm.Options{
					Tracer:       s.tracer,
					ReadMetrics:  lsmReadMetrics,
					WriteMetrics: lsmWriteMetrics,
					// Storage acceleration (value separation defaults on):
					// enough block cache to hold each node's hot L1+ blocks
					// and a hot-key cache sized for skewed tenant points.
					BlockCacheBytes: 8 << 20,
					HotKeyCacheSize: 4096,
				},
				AdmissionEnabled: opts.AdmissionControl,
				Obs:              s.obs,
			}))
			id++
		}
	}
	cluster, err := kvserver.NewCluster(kvserver.ClusterConfig{Clock: opts.Clock, CommitMetrics: commitMetrics}, nodes)
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	cluster.SetRowDecoder(sql.KVRowDecoder())
	s.buckets = tenantcost.NewBucketServer(opts.Clock)
	s.buckets.SetConsumptionObserver(s.obs.AddRU)
	s.registry, err = core.NewRegistry(cluster, s.buckets)
	if err != nil {
		cluster.Close()
		return nil, err
	}

	for _, r := range opts.Regions {
		// One registry per region, shared by the orchestrator and proxy:
		// their metric names repeat across regions, so merging them into
		// the deployment registry would collide. The debug handler labels
		// each region's section instead.
		regMetrics := metric.NewRegistry()
		s.regionMetrics[r] = regMetrics
		orch, err := orchestrator.New(orchestrator.Config{
			Cluster:         cluster,
			Registry:        s.registry,
			Buckets:         s.buckets,
			Clock:           opts.Clock,
			Region:          r,
			WarmPoolSize:    warmPoolSize,
			PreStartProcess: true,
			Metrics:         regMetrics,
			Tracer:          s.tracer,
			Obs:             s.obs,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.orchestrators[r] = orch
		s.autoscalers[r] = autoscaler.New(autoscaler.Config{
			Orchestrator: orch,
			Registry:     s.registry,
			Clock:        opts.Clock,
			Obs:          s.obs,
		})
		p := proxy.New(proxy.Config{Directory: orch, Clock: opts.Clock, Metrics: regMetrics, Tracer: s.tracer, Obs: s.obs})
		if err := p.Start("127.0.0.1:0"); err != nil {
			s.Close()
			return nil, err
		}
		s.proxies[r] = p
	}
	return s, nil
}

// CreateTenant provisions a virtual cluster.
func (s *Serverless) CreateTenant(ctx context.Context, name string, opts TenantOptions) (*Tenant, error) {
	if len(opts.Regions) == 0 {
		opts.Regions = s.opts.Regions
	}
	for _, r := range opts.Regions {
		if _, ok := s.proxies[r]; !ok {
			return nil, fmt.Errorf("crdbserverless: region %s is not deployed", r)
		}
	}
	t, err := s.registry.CreateTenant(ctx, name, opts)
	if err != nil {
		return nil, err
	}
	s.obs.RegisterTenant(t.ID, name)
	return t, nil
}

// Connect opens a SQL connection to a tenant through the nearest region's
// proxy (the geo-routed global DNS name of §4.2.5). If the tenant is
// suspended this is a cold start: the proxy resumes it transparently.
func (s *Serverless) Connect(tenantName, password string) (*Client, error) {
	t, err := s.registry.GetByName(tenantName)
	if err != nil {
		return nil, err
	}
	regions := t.Regions
	if len(regions) == 0 {
		regions = s.opts.Regions
	}
	return s.ConnectRegion(regions[0], tenantName, password)
}

// ConnectRegion connects through a specific region's proxy (the per-region
// DNS name of §4.2.5).
func (s *Serverless) ConnectRegion(r Region, tenantName, password string) (*Client, error) {
	p, ok := s.proxies[r]
	if !ok {
		return nil, fmt.Errorf("crdbserverless: region %s is not deployed", r)
	}
	return wire.Connect(p.Addr(), map[string]string{
		"tenant":   tenantName,
		"user":     "app",
		"password": password,
	})
}

// SQLSession returns an in-process session bound directly to the tenant's
// keyspace, bypassing proxy and wire — the fast path benchmarks use.
func (s *Serverless) SQLSession(tenantName string) (*Session, error) {
	t, err := s.registry.GetByName(tenantName)
	if err != nil {
		return nil, err
	}
	ds := kvserver.NewDistSender(s.cluster, kvserver.Identity{Tenant: t.ID}, kvserver.Config{Obs: s.obs})
	coord := txn.NewCoordinator(ds, s.cluster.Clock(), t.ID)
	coord.SetObs(s.obs)
	catalog := sql.NewCatalog(coord, t.ID)
	exec := sql.NewExecutor(catalog, coord, sql.ExecutorConfig{Obs: s.obs})
	return sql.NewSession(exec, "app"), nil
}

// Suspend scales a tenant to zero compute.
func (s *Serverless) Suspend(ctx context.Context, tenantName string) error {
	for _, r := range s.opts.Regions {
		if err := s.orchestrators[r].SuspendTenant(ctx, tenantName); err != nil && err != core.ErrTenantNotFound {
			return err
		}
	}
	// SuspendTenant marks the registry; calling it per-region is idempotent.
	return nil
}

// Tick advances periodic maintenance: KV cluster upkeep and every region's
// autoscaler. Call at ~3s cadence (a manual clock drives experiments).
func (s *Serverless) Tick(ctx context.Context) error {
	s.cluster.Tick()
	for _, r := range s.opts.Regions {
		if err := s.autoscalers[r].Tick(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the deployment down.
func (s *Serverless) Close() {
	for _, r := range s.opts.Regions {
		if p := s.proxies[r]; p != nil {
			p.Close()
		}
		if o := s.orchestrators[r]; o != nil {
			o.Close()
		}
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// Registry exposes tenant lifecycle (the system-tenant control surface).
func (s *Serverless) Registry() *core.Registry { return s.registry }

// Cluster exposes the shared KV cluster.
func (s *Serverless) Cluster() *kvserver.Cluster { return s.cluster }

// Orchestrator returns a region's pod orchestrator.
func (s *Serverless) Orchestrator(r Region) *orchestrator.Orchestrator { return s.orchestrators[r] }

// Autoscaler returns a region's autoscaler.
func (s *Serverless) Autoscaler(r Region) *autoscaler.Autoscaler { return s.autoscalers[r] }

// Proxy returns a region's routing proxy.
func (s *Serverless) Proxy(r Region) *proxy.Proxy { return s.proxies[r] }

// Buckets returns the tenant token-bucket server (§5.2.2).
func (s *Serverless) Buckets() *tenantcost.BucketServer { return s.buckets }

// Tracer returns the deployment-wide request tracer.
func (s *Serverless) Tracer() *trace.Tracer { return s.tracer }

// Obs returns the tenant observability plane.
func (s *Serverless) Obs() *tenantobs.Plane { return s.obs }

// Metrics returns the deployment-level metric registry (trace.* counters).
// Per-region orchestrator/proxy metrics live in RegionMetrics.
func (s *Serverless) Metrics() *metric.Registry { return s.metrics }

// RegionMetrics returns the registry shared by a region's orchestrator and
// proxy.
func (s *Serverless) RegionMetrics(r Region) *metric.Registry { return s.regionMetrics[r] }

// DebugHandler bundles the deployment's tracer and every metric registry
// into the /debug/tracez and /debug/metrics surface. Sections are ordered
// deployment-first, then regions in deployment order, so the exposition is
// deterministic.
func (s *Serverless) DebugHandler() *debug.Handler {
	h := &debug.Handler{Tracer: s.tracer, Tenantz: s.obs}
	h.Sections = append(h.Sections, debug.Section{Registry: s.metrics})
	for _, r := range s.opts.Regions {
		h.Sections = append(h.Sections, debug.Section{
			Labels:   map[string]string{"region": string(r)},
			Registry: s.regionMetrics[r],
		})
	}
	return h
}

// Topology returns the region topology and RTT matrix.
func (s *Serverless) Topology() *region.Topology { return s.topology }

// TenantID returns a tenant's keyspace ID.
func (s *Serverless) TenantID(name string) (keys.TenantID, error) {
	t, err := s.registry.GetByName(name)
	if err != nil {
		return 0, err
	}
	return t.ID, nil
}

// WaitIdle is a convenience for tests: it ticks maintenance n times with the
// given pause on the deployment clock.
func (s *Serverless) WaitIdle(ctx context.Context, n int, pause time.Duration) error {
	for i := 0; i < n; i++ {
		if err := s.Tick(ctx); err != nil {
			return err
		}
		s.opts.Clock.Sleep(pause)
	}
	return nil
}
