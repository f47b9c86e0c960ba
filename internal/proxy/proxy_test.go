package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/server"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/wire"
)

var instanceIDs int64

type env struct {
	cluster *kvserver.Cluster
	reg     *core.Registry
	nodes   []*server.SQLNode
	mu      sync.Mutex
}

func newEnv(t *testing.T) *env {
	t.Helper()
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID: kvserver.NodeID(i), VCPUs: 2, Cost: cheap,
		}))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	reg, err := core.NewRegistry(c, tenantcost.NewBucketServer(timeutil.NewRealClock()))
	if err != nil {
		t.Fatal(err)
	}
	return &env{cluster: c, reg: reg}
}

func (e *env) addNode(t *testing.T, tenant *core.Tenant) *server.SQLNode {
	t.Helper()
	n := server.NewSQLNode(server.SQLNodeConfig{
		InstanceID: atomic.AddInt64(&instanceIDs, 1),
		Cluster:    e.cluster,
		Region:     "us-central1",
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if err := n.AssignTenant(context.Background(), tenant); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.nodes = append(e.nodes, n)
	e.mu.Unlock()
	return n
}

// Lookup implements Directory over the env's nodes.
func (e *env) Lookup(ctx context.Context, tenantName string) ([]Backend, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Backend
	for _, n := range e.nodes {
		if tn := n.Tenant(); tn != nil && tn.Name == tenantName {
			out = append(out, Backend{ID: n.InstanceID(), Addr: n.Addr(), Draining: n.Draining()})
		}
	}
	if len(out) == 0 {
		return nil, errors.New("tenant not found")
	}
	return out, nil
}

func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p := New(cfg)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestProxyRoutesByTenant(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	globex, _ := e.reg.CreateTenant(ctx, "globex", core.TenantOptions{})
	e.addNode(t, acme)
	e.addNode(t, globex)
	p := startProxy(t, Config{Directory: e})

	ca, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cg, err := wire.Connect(p.Addr(), map[string]string{"tenant": "globex"})
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()

	// Each tenant sees only its own schema.
	if _, err := ca.Query("CREATE TABLE acme_t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cg.Query("CREATE TABLE globex_t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	res, err := ca.Query("SHOW TABLES")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "acme_t" {
		t.Fatalf("acme tables = %+v, %v", res, err)
	}
	res, err = cg.Query("SHOW TABLES")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "globex_t" {
		t.Fatalf("globex tables = %+v, %v", res, err)
	}
}

func TestProxyRequiresTenantParam(t *testing.T) {
	e := newEnv(t)
	p := startProxy(t, Config{Directory: e})
	if _, err := wire.Connect(p.Addr(), map[string]string{}); err == nil {
		t.Fatal("connection without tenant accepted")
	}
}

func TestProxyUnknownTenant(t *testing.T) {
	e := newEnv(t)
	p := startProxy(t, Config{Directory: e})
	if _, err := wire.Connect(p.Addr(), map[string]string{"tenant": "ghost"}); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}

func TestProxyLeastConnections(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n1 := e.addNode(t, acme)
	n2 := e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e})

	var clients []*wire.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	counts := p.ConnsPerBackend()
	if counts[n1.Addr()] != 4 || counts[n2.Addr()] != 4 {
		t.Fatalf("least-connections imbalance: %v", counts)
	}
}

func TestProxySkipsDrainingBackends(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n1 := e.addNode(t, acme)
	n2 := e.addNode(t, acme)
	n1.Drain()
	p := startProxy(t, Config{Directory: e})
	for i := 0; i < 4; i++ {
		c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	counts := p.ConnsPerBackend()
	if counts[n1.Addr()] != 0 || counts[n2.Addr()] != 4 {
		t.Fatalf("draining backend received connections: %v", counts)
	}
}

func TestProxyAuthThrottling(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{Password: "secret"})
	e.addNode(t, acme)
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	p := startProxy(t, Config{Directory: e, Clock: mc})

	// First failure: rejected by the backend, throttle armed.
	if _, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "bad"}); err == nil {
		t.Fatal("bad password accepted")
	}
	if p.AuthFailures() != 1 {
		t.Fatalf("auth failures = %d", p.AuthFailures())
	}
	// Second attempt within backoff: rejected by the proxy itself, even
	// with the right password.
	_, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "secret"})
	if err == nil {
		t.Fatal("throttled origin admitted")
	}
	// After the backoff expires, the connection succeeds and clears state.
	mc.Advance(2 * throttleBase)
	c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestProxyExponentialBackoffGrows(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{Password: "secret"})
	e.addNode(t, acme)
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	p := startProxy(t, Config{Directory: e, Clock: mc})

	wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "bad"})
	mc.Advance(throttleBase * 11 / 10) // past the first backoff
	wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "bad"})
	// The second backoff is twice the first; as long again later we must
	// still be throttled.
	mc.Advance(throttleBase * 11 / 10)
	if _, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "secret"}); err == nil {
		t.Fatal("backoff did not grow")
	}
}

func TestProxyDenyList(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e, DenyList: []string{"127.0.0.1"}})
	if _, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"}); err == nil {
		t.Fatal("denied origin admitted")
	}
	// Allow list without a match also rejects.
	p2 := startProxy(t, Config{Directory: e, AllowList: []string{"10.1.2."}})
	if _, err := wire.Connect(p2.Addr(), map[string]string{"tenant": "acme"}); err == nil {
		t.Fatal("non-allowlisted origin admitted")
	}
}

func TestProxySessionMigration(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n1 := e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e})

	c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "user": "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE t (a INT PRIMARY KEY, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO t VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SET app = 'x'"); err != nil {
		t.Fatal(err)
	}

	// Scale up: a second node appears; drain the first and migrate.
	n2 := e.addNode(t, acme)
	n1.Drain()
	if n := p.RequestMigrations(n1.Addr(), n2.Addr()); n != 1 {
		t.Fatalf("requested %d migrations", n)
	}
	// The migration happens at the next idle moment; poll until done.
	deadline := time.Now().Add(5 * time.Second)
	for p.Migrations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("migration never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The client continues transparently — same session, same data.
	res, err := c.Query("SELECT b FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("post-migration query = %+v", res)
	}
	// And it is genuinely served by n2 now.
	if got := n2.ConnCount(); got != 1 {
		t.Fatalf("n2 conns = %d", got)
	}
	_ = ctx
}

func TestProxyMigrationSkipsBusySessions(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n1 := e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e})

	c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "user": "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Query("CREATE TABLE t (a INT PRIMARY KEY)")
	c.Query("BEGIN")
	c.Query("INSERT INTO t VALUES (1)")

	n2 := e.addNode(t, acme)
	p.RequestMigrations(n1.Addr(), n2.Addr())
	time.Sleep(100 * time.Millisecond)
	if p.Migrations() != 0 {
		t.Fatal("busy session migrated")
	}
	// The transaction still completes on the original node.
	if _, err := c.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("post-commit count = %+v, %v", res, err)
	}
}

func TestProxyConcurrentClients(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	e.addNode(t, acme)
	e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e})

	setup, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	setup.Query("CREATE TABLE t (a INT PRIMARY KEY, g INT)")
	setup.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				if _, err := c.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", g*100+i, g)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	check, _ := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
	defer check.Close()
	res, err := check.Query("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 80 {
		t.Fatalf("count = %+v, %v", res, err)
	}
	_ = sql.DInt(0)
}

func TestProxyRebalanceTickSmoothsAfterScaleUp(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n1 := e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e})

	// Six idle connections all land on the only node.
	var clients []*wire.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < 6; i++ {
		c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "user": "app"})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if got := p.ConnsPerBackend()[n1.Addr()]; got != 6 {
		t.Fatalf("pre-scale distribution: %v", p.ConnsPerBackend())
	}

	// Scale up: a second node appears; the rebalance tick smooths the
	// distribution without any client noticing.
	n2 := e.addNode(t, acme)
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.RebalanceTick(ctx)
		counts := p.ConnsPerBackend()
		if counts[n1.Addr()] == 3 && counts[n2.Addr()] == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never converged: %v", counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// All sessions still work after being shuffled.
	for _, c := range clients {
		if _, err := c.Query("SHOW TABLES"); err != nil {
			t.Fatal(err)
		}
	}
	if p.Migrations() == 0 {
		t.Fatal("no migrations recorded")
	}
}
