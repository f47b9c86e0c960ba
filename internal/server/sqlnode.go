package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/region"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
	"crdbserverless/internal/txn"
	"crdbserverless/internal/wire"
)

// costModel prices KV traffic in estimated CPU. Every SQL node shares the
// calibrated model; nothing mutates it.
var costModel = tenantcost.DefaultModel()

// SQLNodeConfig configures a SQL node process.
type SQLNodeConfig struct {
	// InstanceID is the node's identity in system.sql_instances.
	InstanceID int64
	Cluster    *kvserver.Cluster
	Region     region.Region
	// Buckets is the distributed token-bucket server enforcing quotas.
	Buckets *tenantcost.BucketServer
	// RevivalSecret signs session revival tokens (§4.2.4).
	RevivalSecret []byte
	Clock         timeutil.Clock
	// Addr is the TCP address to listen on; defaults to 127.0.0.1:0.
	//lint:allow deadsurface deployment: the listen address of a SQL pod
	Addr string
	// Tracer, when non-nil, continues request traces propagated by the
	// proxy (wire.Query trace IDs) through statement execution.
	Tracer *trace.Tracer
	// Obs, when non-nil, is the tenant observability plane: the node's
	// executor, coordinator, and DistSender report per-tenant signals
	// through it.
	Obs *tenantobs.Plane
	// Colocated, NoPushdown and CostScale carry the deployment's paper
	// baseline (crdbserverless.Baseline) to the node. Colocated runs the
	// node's SQL engine in one process with KV (§6.1), so scanned rows are
	// not unmarshaled; NoPushdown keeps full scans from pushing work down to
	// KV (§8).
	Colocated  bool
	NoPushdown bool
	// CostScale multiplies the pricing model's KV estimate, matching KV
	// nodes whose ground-truth costs are scaled by the same factor (§6.6).
	// Defaults to 1.
	CostScale float64
}

// SQLNode is one tenant's SQL process. It follows the optimized cold-start
// flow of §4.3.1: Start opens the TCP listener and begins accepting before a
// tenant is assigned (connections wait in the accept path instead of being
// reset); AssignTenant — the analogue of certificates appearing on the
// file system — completes initialization. The node owns its lifecycle: it
// stops only when no session is open or being bound, or when Close forces it.
type SQLNode struct {
	cfg SQLNodeConfig
	ln  net.Listener

	tenantReady chan struct{}
	// closing ends when the node stops, cutting short any quota throttle
	// wait; stopped is closed once its goroutines have ended.
	closing context.Context
	cancel  context.CancelFunc
	stopped chan struct{}

	mu struct {
		sync.Mutex
		tenant  *core.Tenant
		obs     *tenantobs.Tenant // the tenant's handle, bound with it
		exec    *sql.Executor
		metered *MeteredSender
		bucket  *tenantcost.NodeBucket
		// drainedAt is when the node left service, zero while it serves. A
		// retired node has left system.sql_instances and stops once conns
		// is empty; closed is set when it stops.
		drainedAt time.Time
		retired   bool
		closed    bool
		// conns holds every accepted connection not yet ended: the sessions
		// open or being bound.
		conns map[net.Conn]struct{}
		// queries is cumulative.
		queries int64
		// synthetic load for autoscaling experiments (vCPUs).
		synthRate  float64
		synthAccum float64
		synthSince time.Time
	}
	wg sync.WaitGroup
}

// NewSQLNode creates a node; call Start to open its listener.
func NewSQLNode(cfg SQLNodeConfig) *SQLNode {
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if len(cfg.RevivalSecret) == 0 {
		cfg.RevivalSecret = []byte("cluster-revival-secret")
	}
	if cfg.CostScale == 0 {
		cfg.CostScale = 1
	}
	n := &SQLNode{cfg: cfg, tenantReady: make(chan struct{}), stopped: make(chan struct{})}
	n.closing, n.cancel = context.WithCancel(context.Background())
	n.mu.conns = make(map[net.Conn]struct{})
	n.mu.synthSince = cfg.Clock.Now()
	return n
}

// Start opens the listener and begins accepting. The process is "pre-warmed":
// it serves the accept queue even before AssignTenant.
func (n *SQLNode) Start() error {
	ln, err := net.Listen("tcp", n.cfg.Addr)
	if err != nil {
		return err
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return nil
}

// Addr returns the node's listen address.
func (n *SQLNode) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// InstanceID returns the node's instance ID.
func (n *SQLNode) InstanceID() int64 { return n.cfg.InstanceID }

// Region returns the node's region.
//
//lint:allow deadsurface roadmap: "Run Fig 10 on the assembly" (3) drives ConnectRegion on the real stack
func (n *SQLNode) Region() region.Region { return n.cfg.Region }

// AssignTenant stamps the node with its tenant — the moment the tenant's
// certificates land on the pod's file system in production (§4.3.1). The
// node connects to the KV layer, builds its SQL stack, and registers itself
// in system.sql_instances for DistSQL discovery, under n.mu, so a retiring
// Drain or Close deregisters after it. A retired node refuses: its instance
// row would advertise a dead address that nothing removes.
func (n *SQLNode) AssignTenant(ctx context.Context, t *core.Tenant) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.mu.retired {
		return errors.New("server: node closed")
	}
	if n.mu.tenant != nil {
		return errors.New("server: tenant already assigned")
	}
	// The tenant enters the observability plane with its first pod, before
	// any signal keyed by its ID alone could name a series after the ID.
	// The node keeps the handle for its bucket, the proxy and the
	// autoscaler; the DistSender, coordinator and executor made below each
	// resolve it by ID once, here.
	obs := n.cfg.Obs.RegisterTenant(t.ID, t.Name)
	ds := kvserver.NewDistSender(n.cfg.Cluster, kvserver.Identity{Tenant: t.ID}, kvserver.Config{Obs: n.cfg.Obs})
	metered := NewMeteredSender(ds)
	coord := txn.NewCoordinator(metered, n.cfg.Cluster.Clock(), t.ID)
	coord.SetObs(n.cfg.Obs)
	catalog := sql.NewCatalog(coord, t.ID)
	exec := sql.NewExecutor(catalog, coord, sql.ExecutorConfig{
		Colocated:  n.cfg.Colocated,
		NoPushdown: n.cfg.NoPushdown,
		Obs:        n.cfg.Obs,
	})
	n.mu.tenant = t
	n.mu.obs = obs
	n.mu.exec = exec
	n.mu.metered = metered
	if n.cfg.Buckets != nil {
		n.mu.bucket = tenantcost.NewNodeBucket(n.cfg.Buckets, n.cfg.Clock, t.ID, int32(n.cfg.InstanceID), obs)
	}
	// Connections waiting on tenantReady bind once n.mu is released.
	close(n.tenantReady)
	// The startup write to system.sql_instances (§3.2.5).
	return sql.RegisterInstance(ctx, coord, t.ID, sql.SQLInstance{
		ID: n.cfg.InstanceID, Region: n.cfg.Region, Addr: n.Addr(),
	})
}

// Tenant returns the assigned tenant, if any.
func (n *SQLNode) Tenant() *core.Tenant {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.tenant
}

// Obs returns the assigned tenant's handle on the observability plane (nil
// before assignment, or when the node has no plane).
func (n *SQLNode) Obs() *tenantobs.Tenant {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.obs
}

// Executor exposes the node's SQL executor (nil before assignment).
func (n *SQLNode) Executor() *sql.Executor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.exec
}

// Drain takes the node out of service (§4.2.3): from now on it refuses new
// sessions, while open ones finish or migrate away. With stop, the node also
// retires: it leaves system.sql_instances, cannot return to service, and
// stops once no session is open or being bound, at once if none is, else
// when the last one ends.
func (n *SQLNode) Drain(stop bool) { n.leave(stop, false) }

// Undrain returns a draining node to service, the churn-reduction path of
// §4.2.3 where draining nodes are reused before pre-warmed ones. A retired
// node stays out: Undrain reports whether the node serves.
func (n *SQLNode) Undrain() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.mu.retired {
		n.mu.drainedAt = time.Time{}
	}
	return !n.mu.retired
}

// Lifecycle reports when the node left service (zero while it serves) and
// whether it has stopped.
func (n *SQLNode) Lifecycle() (drainedAt time.Time, stopped bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.drainedAt, n.mu.closed
}

// ConnCount returns the number of connections open or being bound.
func (n *SQLNode) ConnCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.mu.conns)
}

// Close stops the node at once, closing its open connections, and returns
// once it has stopped.
func (n *SQLNode) Close() {
	n.leave(true, true)
	<-n.stopped
}

// leave takes the node out of service, retiring it if retire, all under
// n.mu; a retired node stops if force is set or no connection is left.
func (n *SQLNode) leave(retire, force bool) {
	n.mu.Lock()
	if n.mu.drainedAt.IsZero() {
		n.mu.drainedAt = n.cfg.Clock.Now()
	}
	var tenant *core.Tenant
	if retire && !n.mu.retired {
		tenant = n.mu.tenant
	}
	n.mu.retired = n.mu.retired || retire
	halt := n.mu.retired && !n.mu.closed && (force || len(n.mu.conns) == 0)
	n.mu.closed = n.mu.closed || halt
	n.mu.Unlock()
	n.finish(tenant, halt)
}

// finish deregisters the node from system.sql_instances when tenant is
// set, then, with halt, stops it: the listener and every connection close,
// and their goroutines end.
func (n *SQLNode) finish(tenant *core.Tenant, halt bool) {
	if tenant != nil {
		ds := kvserver.NewDistSender(n.cfg.Cluster, kvserver.Identity{Tenant: tenant.ID})
		coord := txn.NewCoordinator(ds, n.cfg.Cluster.Clock(), tenant.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		//lint:allow faulterr best-effort deregistration during shutdown; the node is gone either way and the orchestrator prunes stale rows
		_ = sql.UnregisterInstance(ctx, coord, tenant.ID, n.cfg.Region, n.cfg.InstanceID)
		cancel()
	}
	if !halt {
		return
	}
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.mu.conns))
	for c := range n.mu.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].RemoteAddr().String() < conns[j].RemoteAddr().String() })
	n.cancel()
	if n.ln != nil {
		n.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	close(n.stopped)
}

// CumulativeCPUSeconds returns the node's total CPU consumption: measured
// SQL CPU plus any synthetic load injected for experiments. The autoscaler
// scrapes this directly at a 3-second cadence (§4.3.2).
func (n *SQLNode) CumulativeCPUSeconds() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.accrueSynthLocked()
	var sqlCPU float64
	if n.mu.exec != nil {
		sqlCPU = n.mu.exec.SQLCPUSeconds()
	}
	return sqlCPU + n.mu.synthAccum
}

// SetSyntheticLoad makes the node report a steady CPU usage of the given
// vCPUs — the experiment harness uses this to replay production load traces
// through the autoscaler.
func (n *SQLNode) SetSyntheticLoad(vcpus float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.accrueSynthLocked()
	n.mu.synthRate = vcpus
}

func (n *SQLNode) accrueSynthLocked() {
	now := n.cfg.Clock.Now()
	dt := now.Sub(n.mu.synthSince).Seconds()
	if dt > 0 {
		n.mu.synthAccum += n.mu.synthRate * dt
	}
	n.mu.synthSince = now
}

func (n *SQLNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.mu.closed {
			n.mu.Unlock()
			conn.Close()
			continue
		}
		n.mu.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go func() {
			n.handleConn(conn)
			n.mu.Lock()
			delete(n.mu.conns, conn)
			halt := n.mu.retired && !n.mu.closed && len(n.mu.conns) == 0
			n.mu.closed = n.mu.closed || halt
			n.mu.Unlock()
			// A retired node's last session stops it, outside the wait group.
			n.wg.Done()
			n.finish(nil, halt)
		}()
	}
}

// handleConn serves one wire-protocol connection. A node out of service
// refuses the session in its Auth answer, before the client sends a
// request, so the proxy can route the client elsewhere.
func (n *SQLNode) handleConn(conn net.Conn) {
	defer conn.Close()
	// Pre-warmed nodes accept the TCP connection before the tenant is known
	// — the client's handshake waits here rather than seeing a reset.
	select {
	case <-n.tenantReady:
	case <-n.closing.Done():
		return
	}

	rd := wire.NewReader(conn)
	defer rd.Release()
	frame, err := rd.Next()
	if err != nil {
		return
	}
	session, refusal := n.open(frame)
	if err := wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: session != nil, Msg: refusal}); err != nil || session == nil {
		return
	}
	n.serveSession(conn, rd, session)
}

// open authenticates a startup against the tenant record, or resumes a
// migrated session from a restore (§4.2.4), whose revival token
// authenticates it without client credentials. It returns the session, or
// why it is refused.
func (n *SQLNode) open(frame []byte) (*sql.Session, string) {
	if drainedAt, stopped := n.Lifecycle(); stopped || !drainedAt.IsZero() {
		return nil, wire.RefusedDraining
	}
	payload := frame[wire.HeaderSize:]
	var s wire.Startup
	var r wire.Restore
	switch {
	case frame[0] == wire.MsgStartup && wire.Decode(payload, &s) == nil:
		tenant := n.Tenant()
		if name := s.Params["tenant"]; name != "" && name != tenant.Name {
			return nil, "tenant mismatch"
		}
		if tenant.Password != "" && s.Params["password"] != tenant.Password {
			return nil, "invalid credentials"
		}
		user := s.Params["user"]
		if user == "" {
			user = "root"
		}
		return sql.NewSession(n.Executor(), user), ""
	case frame[0] == wire.MsgRestore && wire.Decode(payload, &r) == nil:
		ser, err := sql.DecodeSerializedSession(r.Data)
		if err != nil {
			return nil, "bad session payload"
		}
		session, err := sql.RestoreSession(n.Executor(), ser, n.cfg.RevivalSecret)
		if err != nil {
			return nil, err.Error()
		}
		return session, ""
	}
	return nil, "expected a startup or restore message"
}

// serveSession runs the query loop, reading the connection through rd. The
// connection decodes every query into one Query, taking a text the statement
// cache holds from the cache, and runs every statement in one Scratch, so a
// statement it has run before allocates no frame, text, argument array,
// result, row array or implicit transaction of its own. The Scratch is
// released once each result is written, so it keeps no values between
// statements.
func (n *SQLNode) serveSession(conn net.Conn, rd *wire.Reader, session *sql.Session) {
	ctx := context.Background()
	var q wire.Query
	var scratch sql.Scratch
	texts := session.CachedText
	for {
		frame, err := rd.Next()
		if err != nil {
			return
		}
		switch frame[0] {
		case wire.MsgTerminate:
			return
		case wire.MsgQuery:
			if err := wire.DecodeQuery(frame[wire.HeaderSize:], &q, texts); err != nil {
				return
			}
			qctx := ctx
			var qsp *trace.Span
			if n.cfg.Tracer != nil && q.TraceID != 0 {
				qsp = n.cfg.Tracer.StartRemote(q.TraceID, q.SpanID, "sqlnode.query")
				qsp.SetAttr("sqlnode.instance", n.cfg.InstanceID)
				// A remote span starts over context.Background, as ctx is,
				// so the span is already the context carrying itself.
				qctx = qsp
			}
			res, qerr := session.ExecuteIn(qctx, &scratch, q.SQL, q.Args)
			qsp.Finish()
			n.enforceQuota(n.closing)
			out := &wire.Result{}
			if qerr != nil {
				out.Err = qerr.Error()
			} else {
				out.Columns = res.Columns
				out.Rows = res.Rows
				out.RowsAffected = res.RowsAffected
			}
			if err := wire.WriteMessage(conn, wire.MsgResult, out); err != nil {
				return
			}
			scratch.Release()
		case wire.MsgSerialize:
			ser, serr := session.Serialize(n.cfg.RevivalSecret)
			resp := &wire.Serialized{}
			if serr != nil {
				resp.Err = serr.Error()
			} else {
				resp.Data = ser.Encode()
			}
			// The session serves on until the proxy, having restored it
			// elsewhere, closes this connection: a failed restore leaves it
			// where it is.
			if err := wire.WriteMessage(conn, wire.MsgSerialized, resp); err != nil {
				return
			}
		default:
			return
		}
	}
}

// enforceQuota runs after every statement the node serves, on the wire or
// in process: it counts the statement, charges the node's eCPU consumption
// against the tenant's distributed token bucket, and smooth-throttles when
// over quota (§5.2.2), until ctx ends.
func (n *SQLNode) enforceQuota(ctx context.Context) {
	n.mu.Lock()
	n.mu.queries++
	bucket, exec, metered := n.mu.bucket, n.mu.exec, n.mu.metered
	n.mu.Unlock()
	if bucket != nil {
		bucket.Throttle(ctx, n.estimate(exec, metered).Tokens())
	}
}

// ECPU returns the node's cumulative estimated CPU (§5.2.1), the figure the
// quota is charged from; the experiments report it.
func (n *SQLNode) ECPU() tenantcost.ECPU {
	n.mu.Lock()
	exec, metered := n.mu.exec, n.mu.metered
	n.mu.Unlock()
	if exec == nil {
		return 0
	}
	return n.estimate(exec, metered)
}

// estimate is the node's directly measured SQL CPU plus the modelled CPU of
// the KV traffic it sent:
//
//	estimated_cpu = actual_sql_cpu + estimated_kv_cpu
func (n *SQLNode) estimate(exec *sql.Executor, metered *MeteredSender) tenantcost.ECPU {
	kv := costModel.EstimateKV(metered.Features()) * tenantcost.ECPU(n.cfg.CostScale)
	return tenantcost.ECPU(exec.SQLCPUSeconds()) + kv
}

// Bucket returns the node's client of the tenant's distributed token bucket
// (nil before assignment).
func (n *SQLNode) Bucket() *tenantcost.NodeBucket {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.bucket
}

// Session is an in-process session on the node: its statements run on the
// node's executor, metered, and charged to the tenant's quota by the same
// enforceQuota the wire loop calls, without the wire protocol.
type Session struct {
	node *SQLNode
	sess *sql.Session
}

// NewSession opens an in-process session for user on an assigned node.
func (n *SQLNode) NewSession(user string) *Session {
	return &Session{node: n, sess: sql.NewSession(n.Executor(), user)}
}

// Execute runs one statement, then charges the tenant's quota for it; a
// throttle wait ends early when ctx does.
func (s *Session) Execute(ctx context.Context, q string, args ...sql.Datum) (*sql.Result, error) {
	res, err := s.sess.Execute(ctx, q, args...)
	s.node.enforceQuota(ctx)
	return res, err
}

// String implements fmt.Stringer.
func (n *SQLNode) String() string {
	t := n.Tenant()
	name := "<unassigned>"
	if t != nil {
		name = t.Name
	}
	return fmt.Sprintf("sqlnode-%d[%s@%s]", n.cfg.InstanceID, name, n.cfg.Region)
}
