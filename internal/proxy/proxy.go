// Package proxy implements the routing and load-balancing layer of §4.2.2:
// a TCP proxy that identifies the tenant from the startup message, routes to
// the tenant's SQL nodes with a least-connections policy, throttles failed
// authentication with exponential backoff, enforces IP allow/deny lists, and
// transparently migrates idle sessions between SQL nodes (§4.2.4).
package proxy

import (
	"context"
	"errors"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
	"crdbserverless/internal/wire"
)

// Backend is one SQL node a tenant connection may be routed to.
type Backend struct {
	ID       int64
	Addr     string
	Draining bool
}

// Directory resolves tenants to SQL nodes. The orchestrator implements it;
// for a suspended tenant, Lookup triggers the cold-start path (pulling a
// warm node and stamping it) before returning.
type Directory interface {
	Lookup(ctx context.Context, tenantName string) ([]Backend, error)
}

// Config configures a Proxy.
type Config struct {
	Directory Directory
	Clock     timeutil.Clock
	// Metrics receives the proxy's counters (proxy.*). A fresh registry is
	// created when nil.
	Metrics *metric.Registry
	// AllowList and DenyList match client IP prefixes. An empty allow list
	// admits everyone not denied; deny wins over allow.
	AllowList []string
	DenyList  []string
	// Tracer, when non-nil, records a root span per proxied connection
	// (with routing, per-exchange, and migration child spans) and stamps
	// each forwarded query with trace IDs so the SQL node continues the
	// trace.
	Tracer *trace.Tracer
	// Faults, when non-nil, arms the proxy's fault-injection sites:
	// proxy.backend.kill severs the backend connection between exchanges,
	// forcing the session to re-route to a healthy SQL node while the
	// client's connection survives.
	Faults *faultinject.Registry
	// Obs, when non-nil, receives per-tenant connection counts
	// (proxy.tenant_conns).
	Obs *tenantobs.Plane
}

// Proxy is a running proxy server.
type Proxy struct {
	cfg Config
	ln  net.Listener

	mu struct {
		sync.Mutex
		closed bool
		// connsPerBackend drives least-connections routing.
		connsPerBackend map[string]int
		conns           map[*proxiedConn]struct{}
		throttle        map[string]*throttleState
		// nextConnID seeds proxiedConn.id in accept order.
		nextConnID uint64
	}
	wg sync.WaitGroup

	migrations        *metric.Counter
	authFailures      *metric.Counter
	backendReconnects *metric.Counter
}

// throttleBase is the backoff after a failed authentication; it doubles per
// further failure, up to a minute.
const throttleBase = 100 * time.Millisecond

type throttleState struct {
	failures int
	until    time.Time
}

// New returns a Proxy (call Start).
func New(cfg Config) *Proxy {
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metric.NewRegistry()
	}
	p := &Proxy{cfg: cfg}
	p.migrations = cfg.Metrics.NewCounter("proxy.migrations")
	p.authFailures = cfg.Metrics.NewCounter("proxy.auth_failures")
	p.backendReconnects = cfg.Metrics.NewCounter("proxy.backend_reconnects")
	p.mu.connsPerBackend = make(map[string]int)
	p.mu.conns = make(map[*proxiedConn]struct{})
	p.mu.throttle = make(map[string]*throttleState)
	return p
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port).
func (p *Proxy) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	return nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close shuts the proxy down, closing all proxied connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.mu.closed {
		p.mu.Unlock()
		return
	}
	p.mu.closed = true
	conns := sortedConns(p.mu.conns)
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.close()
	}
	p.wg.Wait()
}

// Migrations returns the number of completed session migrations.
func (p *Proxy) Migrations() int64 { return p.migrations.Value() }

// BackendReconnects returns the number of sessions re-routed to a new SQL
// node after their backend connection died mid-session.
func (p *Proxy) BackendReconnects() int64 { return p.backendReconnects.Value() }

// AuthFailures returns the number of rejected authentication attempts seen.
func (p *Proxy) AuthFailures() int64 { return p.authFailures.Value() }

// ActiveConns returns the number of proxied connections.
func (p *Proxy) ActiveConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.mu.conns)
}

// ConnsPerBackend returns a snapshot of per-backend connection counts.
func (p *Proxy) ConnsPerBackend() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.mu.connsPerBackend))
	for k, v := range p.mu.connsPerBackend {
		out[k] = v
	}
	return out
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handleConn(conn)
		}()
	}
}

func clientOrigin(conn net.Conn) string {
	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return conn.RemoteAddr().String()
	}
	return host
}

// ipAllowed applies the deny/allow lists (§4.2.2's second security control).
func (p *Proxy) ipAllowed(origin string) bool {
	for _, d := range p.cfg.DenyList {
		if strings.HasPrefix(origin, d) {
			return false
		}
	}
	if len(p.cfg.AllowList) == 0 {
		return true
	}
	for _, a := range p.cfg.AllowList {
		if strings.HasPrefix(origin, a) {
			return true
		}
	}
	return false
}

// throttled reports whether the origin is inside its auth-failure backoff.
func (p *Proxy) throttled(origin string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.mu.throttle[origin]
	return ok && p.cfg.Clock.Now().Before(st.until)
}

// noteAuthFailure applies exponential backoff to the origin.
func (p *Proxy) noteAuthFailure(origin string) {
	p.authFailures.Inc(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.mu.throttle[origin]
	if st == nil {
		st = &throttleState{}
		p.mu.throttle[origin] = st
	}
	st.failures++
	backoff := throttleBase << uint(st.failures-1)
	if backoff > time.Minute {
		backoff = time.Minute
	}
	st.until = p.cfg.Clock.Now().Add(backoff)
}

// noteAuthSuccess clears the origin's backoff.
func (p *Proxy) noteAuthSuccess(origin string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.mu.throttle, origin)
}

// pickBackend chooses the non-draining backend with the fewest proxied
// connections ("least connections", §4.2.2).
func (p *Proxy) pickBackend(backends []Backend) (Backend, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, b := range backends {
		if b.Draining {
			continue
		}
		if best == -1 || p.mu.connsPerBackend[b.Addr] < p.mu.connsPerBackend[backends[best].Addr] {
			best = i
		}
	}
	if best == -1 {
		return Backend{}, errors.New("proxy: no healthy SQL nodes")
	}
	p.mu.connsPerBackend[backends[best].Addr]++
	return backends[best], nil
}

func (p *Proxy) releaseBackend(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mu.connsPerBackend[addr] > 0 {
		p.mu.connsPerBackend[addr]--
	}
}

func (p *Proxy) handleConn(client net.Conn) {
	defer client.Close()
	origin := clientOrigin(client)
	if !p.ipAllowed(origin) {
		wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: "address not allowed"})
		return
	}
	if p.throttled(origin) {
		wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: "too many failed attempts; backoff in effect"})
		return
	}
	// Identify the tenant from the startup message before any routing. The
	// Reader's buffer grows with the bytes that arrive, so a header claiming
	// a large frame costs nothing before authentication.
	clientRd := wire.NewReader(client)
	defer clientRd.Release()
	frame, err := clientRd.Next()
	if err != nil || frame[0] != wire.MsgStartup {
		return
	}
	var startup wire.Startup
	if err := wire.Decode(frame[wire.HeaderSize:], &startup); err != nil {
		return
	}
	tenantName := startup.Params["tenant"]
	if tenantName == "" {
		wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: "tenant parameter required"})
		return
	}

	ctx := context.Background()
	var span *trace.Span
	if p.cfg.Tracer != nil {
		span = p.cfg.Tracer.StartRoot("proxy.conn")
		defer span.Finish()
		span.SetAttr("proxy.tenant", tenantName)
		span.SetAttr("proxy.origin", origin)
		ctx = trace.ContextWithSpan(ctx, span)
	}
	// Routing — for a suspended tenant this is the cold-start path, and
	// the orchestrator's pod-assignment work nests under proxy.route.
	rctx, routeSp := trace.StartSpan(ctx, "proxy.route")
	backends, err := p.cfg.Directory.Lookup(rctx, tenantName)
	if err != nil {
		routeSp.Finish()
		wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: err.Error()})
		return
	}
	backend, err := p.pickBackend(backends)
	if err != nil {
		routeSp.Finish()
		wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: err.Error()})
		return
	}
	routeSp.SetAttr("proxy.backend", backend.Addr)
	routeSp.Finish()

	pc := &proxiedConn{
		proxy:      p,
		client:     client,
		clientRd:   clientRd,
		tenantName: tenantName,
		origin:     origin,
		startup:    startup,
		span:       span,
		migrateCh:  make(chan string, 1),
	}
	if err := pc.connectBackend(backend.Addr, &startup); err != nil {
		p.releaseBackend(backend.Addr)
		// Detect the backend's negative auth response and throttle.
		var authErr *wire.AuthError
		if errors.As(err, &authErr) {
			p.noteAuthFailure(origin)
			wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: authErr.Msg})
		} else {
			wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: false, Msg: err.Error()})
		}
		return
	}
	defer func() {
		pc.close()
		// The reader of whichever backend the session ended on.
		pc.backendRd.Release()
		p.releaseBackend(pc.backendAddr())
	}()
	// Register the connection before the client hears it is in, so a Close
	// after the client's Connect returns finds it; a closing proxy turns it
	// away.
	p.mu.Lock()
	if p.mu.closed {
		p.mu.Unlock()
		return
	}
	p.mu.nextConnID++
	pc.id = p.mu.nextConnID
	p.mu.conns[pc] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.mu.conns, pc)
		p.mu.Unlock()
	}()
	p.noteAuthSuccess(origin)
	if err := wire.WriteMessage(client, wire.MsgAuth, &wire.Auth{OK: true}); err != nil {
		return
	}
	p.cfg.Obs.ConnOpened(tenantName)
	pc.relay()
}

// RequestMigrations asks every connection currently on fromAddr to migrate
// to toAddr at its next idle moment (used for scale-down draining and
// post-scale-up smoothing, §4.2.2).
func (p *Proxy) RequestMigrations(fromAddr, toAddr string) int {
	p.mu.Lock()
	all := sortedConns(p.mu.conns)
	p.mu.Unlock()
	conns := make([]*proxiedConn, 0)
	for _, pc := range all {
		if pc.backendAddr() == fromAddr {
			conns = append(conns, pc)
		}
	}
	n := 0
	for _, pc := range conns {
		if pc.requestMigration(toAddr) {
			n++
		}
	}
	return n
}

// RequestMigration asks exactly one connection on fromAddr to migrate to
// toAddr at its next idle moment. It reports whether a connection accepted
// the request.
func (p *Proxy) RequestMigration(fromAddr, toAddr string) bool {
	p.mu.Lock()
	all := sortedConns(p.mu.conns)
	p.mu.Unlock()
	conns := make([]*proxiedConn, 0)
	for _, pc := range all {
		if pc.backendAddr() == fromAddr {
			conns = append(conns, pc)
		}
	}
	for _, pc := range conns {
		if pc.requestMigration(toAddr) {
			return true
		}
	}
	return false
}

func (p *Proxy) noteMigration() { p.migrations.Inc(1) }

func (p *Proxy) noteBackendReconnect() { p.backendReconnects.Inc(1) }

// RebalanceTick evens connection counts across each tenant's healthy
// backends (§4.2.2: "proxy servers periodically re-balance connections
// across available SQL nodes"; after a scale-up, connections migrate from
// loaded nodes to new ones to smooth the distribution). It requests at most
// one migration per overloaded backend per tick, and returns the number of
// migrations requested.
func (p *Proxy) RebalanceTick(ctx context.Context) int {
	// Group connections by tenant, visiting tenants in name order so each
	// tick requests the same migrations given the same connection set.
	p.mu.Lock()
	all := sortedConns(p.mu.conns)
	p.mu.Unlock()
	byTenant := make(map[string][]*proxiedConn)
	tenants := make([]string, 0)
	for _, pc := range all {
		if _, ok := byTenant[pc.tenantName]; !ok {
			tenants = append(tenants, pc.tenantName)
		}
		byTenant[pc.tenantName] = append(byTenant[pc.tenantName], pc)
	}
	sort.Strings(tenants)

	requested := 0
	for _, tenant := range tenants {
		conns := byTenant[tenant]
		backends, err := p.cfg.Directory.Lookup(ctx, tenant)
		if err != nil {
			continue
		}
		healthy := make([]Backend, 0, len(backends))
		for _, b := range backends {
			if !b.Draining {
				healthy = append(healthy, b)
			}
		}
		if len(healthy) < 2 {
			continue
		}
		counts := make(map[string]int, len(healthy))
		for _, b := range healthy {
			counts[b.Addr] = 0
		}
		for _, pc := range conns {
			if _, ok := counts[pc.backendAddr()]; ok {
				counts[pc.backendAddr()]++
			}
		}
		// Move one connection at a time from the most- to the least-loaded
		// backend whenever they differ by more than one.
		for {
			var maxA, minA string
			maxC, minC := -1, 1<<30
			for addr, c := range counts {
				// Ties break toward the lexically smaller address so the
				// chosen pair does not depend on map iteration order.
				if c > maxC || (c == maxC && addr < maxA) {
					maxC, maxA = c, addr
				}
				if c < minC || (c == minC && addr < minA) {
					minC, minA = c, addr
				}
			}
			if maxC-minC <= 1 {
				break
			}
			if !p.RequestMigration(maxA, minA) {
				break
			}
			requested++
			counts[maxA]--
			counts[minA]++
		}
	}
	return requested
}

// sortedConns snapshots a connection set in accept-id order. Callers hold
// p.mu; the returned slice is safe to use after release.
func sortedConns(set map[*proxiedConn]struct{}) []*proxiedConn {
	conns := make([]*proxiedConn, 0, len(set))
	for pc := range set {
		conns = append(conns, pc)
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
	return conns
}
