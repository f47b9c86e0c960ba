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
// file system — completes initialization.
type SQLNode struct {
	cfg SQLNodeConfig
	ln  net.Listener

	tenantReady chan struct{}
	// closing ends when Close starts, cutting short any quota throttle wait.
	closing context.Context
	cancel  context.CancelFunc

	mu struct {
		sync.Mutex
		tenant   *core.Tenant
		exec     *sql.Executor
		metered  *MeteredSender
		bucket   *tenantcost.NodeBucket
		draining bool
		closed   bool
		conns    map[net.Conn]*connState
		// sessionCount is current open sessions; queries is cumulative.
		queries int64
		// synthetic load for autoscaling experiments (vCPUs).
		synthRate   float64
		synthAccum  float64
		synthSince  time.Time
		activeConns int
	}
	wg sync.WaitGroup
}

type connState struct {
	session *sql.Session
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
	n := &SQLNode{cfg: cfg, tenantReady: make(chan struct{})}
	n.closing, n.cancel = context.WithCancel(context.Background())
	n.mu.conns = make(map[net.Conn]*connState)
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
// in system.sql_instances for DistSQL discovery. A closed node refuses: its
// instance row would advertise a dead address that nothing removes.
func (n *SQLNode) AssignTenant(ctx context.Context, t *core.Tenant) error {
	n.mu.Lock()
	if n.mu.closed {
		n.mu.Unlock()
		return errors.New("server: node closed")
	}
	if n.mu.tenant != nil {
		n.mu.Unlock()
		return errors.New("server: tenant already assigned")
	}
	// Close waits for the registration below before it deregisters, so a
	// Close racing this call cannot leave the row behind.
	n.wg.Add(1)
	defer n.wg.Done()
	// The tenant enters the observability plane with its first pod, before
	// any signal keyed by its ID alone could name a series after the ID.
	// The DistSender, coordinator, executor and node bucket made below each
	// resolve its handle once, here.
	n.cfg.Obs.RegisterTenant(t.ID, t.Name)
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
	n.mu.exec = exec
	n.mu.metered = metered
	if n.cfg.Buckets != nil {
		n.mu.bucket = tenantcost.NewNodeBucket(n.cfg.Buckets, n.cfg.Clock, t.ID, int32(n.cfg.InstanceID))
	}
	n.mu.Unlock()
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

// Executor exposes the node's SQL executor (nil before assignment).
func (n *SQLNode) Executor() *sql.Executor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.exec
}

// Drain puts the node into draining: new connections are refused while
// existing ones finish or migrate (§4.2.3).
func (n *SQLNode) Drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mu.draining = true
}

// Undrain returns a draining node to service — the churn-reduction path of
// §4.2.3 where draining nodes are reused before pre-warmed ones.
func (n *SQLNode) Undrain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mu.draining = false
}

// Draining reports whether the node is draining.
func (n *SQLNode) Draining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.draining
}

// ConnCount returns the number of open connections.
func (n *SQLNode) ConnCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.activeConns
}

// Close shuts the node down.
func (n *SQLNode) Close() {
	n.mu.Lock()
	if n.mu.closed {
		n.mu.Unlock()
		return
	}
	n.mu.closed = true
	conns := make([]net.Conn, 0, len(n.mu.conns))
	for c := range n.mu.conns {
		conns = append(conns, c)
	}
	sort.Slice(conns, func(i, j int) bool {
		return conns[i].RemoteAddr().String() < conns[j].RemoteAddr().String()
	})
	tenant := n.mu.tenant
	n.mu.Unlock()
	n.cancel()
	if n.ln != nil {
		n.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	// Deregister from system.sql_instances. The wait above let an
	// AssignTenant already past its closed check finish registering.
	if tenant != nil {
		ds := kvserver.NewDistSender(n.cfg.Cluster, kvserver.Identity{Tenant: tenant.ID})
		coord := txn.NewCoordinator(ds, n.cfg.Cluster.Clock(), tenant.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		//lint:allow faulterr best-effort deregistration during shutdown; the node is gone either way and the orchestrator prunes stale rows
		_ = sql.UnregisterInstance(ctx, coord, tenant.ID, n.cfg.Region, n.cfg.InstanceID)
	}
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
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(conn)
		}()
	}
}

// handleConn serves one wire-protocol connection.
func (n *SQLNode) handleConn(conn net.Conn) {
	defer conn.Close()

	// Pre-warmed nodes accept the TCP connection before the tenant is known
	// — the client's handshake waits here rather than seeing a reset.
	<-n.tenantReady

	rd := wire.NewReader(conn)
	defer rd.Release()
	frame, err := rd.Next()
	if err != nil {
		return
	}
	payload := frame[wire.HeaderSize:]
	var session *sql.Session
	switch frame[0] {
	case wire.MsgStartup:
		var s wire.Startup
		if err := wire.Decode(payload, &s); err != nil {
			return
		}
		session = n.authenticate(conn, &s)
	case wire.MsgRestore:
		var r wire.Restore
		if err := wire.Decode(payload, &r); err != nil {
			return
		}
		session = n.restore(conn, &r)
	default:
		return
	}
	if session == nil {
		return
	}

	st := &connState{session: session}
	n.mu.Lock()
	if n.mu.draining || n.mu.closed {
		n.mu.Unlock()
		wire.WriteMessage(conn, wire.MsgResult, &wire.Result{Err: "server is draining"})
		return
	}
	n.mu.conns[conn] = st
	n.mu.activeConns++
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.mu.conns, conn)
		n.mu.activeConns--
		n.mu.Unlock()
	}()

	n.serveSession(conn, rd, st)
}

// authenticate validates startup credentials against the tenant record and
// answers with an Auth message.
func (n *SQLNode) authenticate(conn net.Conn, s *wire.Startup) *sql.Session {
	tenant := n.Tenant()
	name := s.Params["tenant"]
	if name != "" && name != tenant.Name {
		wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: false, Msg: "tenant mismatch"})
		return nil
	}
	if tenant.Password != "" && s.Params["password"] != tenant.Password {
		wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: false, Msg: "invalid credentials"})
		return nil
	}
	if err := wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: true}); err != nil {
		return nil
	}
	user := s.Params["user"]
	if user == "" {
		user = "root"
	}
	return sql.NewSession(n.Executor(), user)
}

// restore resumes a migrated session (§4.2.4): the revival token inside the
// serialized payload authenticates it without client credentials.
func (n *SQLNode) restore(conn net.Conn, r *wire.Restore) *sql.Session {
	ser, err := sql.DecodeSerializedSession(r.Data)
	if err != nil {
		wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: false, Msg: "bad session payload"})
		return nil
	}
	session, err := sql.RestoreSession(n.Executor(), ser, n.cfg.RevivalSecret)
	if err != nil {
		wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: false, Msg: err.Error()})
		return nil
	}
	if err := wire.WriteMessage(conn, wire.MsgAuth, &wire.Auth{OK: true}); err != nil {
		return nil
	}
	return session
}

// serveSession runs the query loop, reading the connection through rd. The
// connection decodes every query into one Query, taking a text the statement
// cache holds from the cache, and runs every statement in one Scratch, so a
// statement it has run before allocates no frame, text, argument array,
// result, row array or implicit transaction of its own. The Scratch is
// released once each result is written, so it keeps no values between
// statements.
func (n *SQLNode) serveSession(conn net.Conn, rd *wire.Reader, st *connState) {
	ctx := context.Background()
	var q wire.Query
	var scratch sql.Scratch
	texts := st.session.CachedText
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
			res, qerr := st.session.ExecuteIn(qctx, &scratch, q.SQL, q.Args)
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
			ser, serr := st.session.Serialize(n.cfg.RevivalSecret)
			resp := &wire.Serialized{}
			if serr != nil {
				resp.Err = serr.Error()
			} else {
				resp.Data = ser.Encode()
			}
			if err := wire.WriteMessage(conn, wire.MsgSerialized, resp); err != nil {
				return
			}
			if resp.Err == "" {
				// The proxy takes the session elsewhere; this connection is
				// done.
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
