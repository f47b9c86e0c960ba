package server

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/txn"
	"crdbserverless/internal/wire"
)

var instanceIDs int64

type testEnv struct {
	cluster *kvserver.Cluster
	reg     *core.Registry
	buckets *tenantcost.BucketServer
}

func newEnv(t *testing.T) *testEnv {
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
	buckets := tenantcost.NewBucketServer(timeutil.NewRealClock())
	reg, err := core.NewRegistry(c, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{cluster: c, reg: reg, buckets: buckets}
}

func (e *testEnv) startNode(t *testing.T, tenant *core.Tenant) *SQLNode {
	t.Helper()
	n := NewSQLNode(SQLNodeConfig{
		InstanceID: atomic.AddInt64(&instanceIDs, 1),
		Cluster:    e.cluster,
		Region:     "us-central1",
		Buckets:    e.buckets,
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if tenant != nil {
		if err := n.AssignTenant(context.Background(), tenant); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestSQLNodeServesQueries(t *testing.T) {
	env := newEnv(t)
	tn, _ := env.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{Password: "pw"})
	n := env.startNode(t, tn)

	c, err := wire.Connect(n.Addr(), map[string]string{"tenant": "acme", "user": "app", "password": "pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE t (a INT PRIMARY KEY, b STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT b FROM t WHERE a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "y" {
		t.Fatalf("query over wire = %+v", res)
	}
	if n.QueryCount() != 3 {
		t.Fatalf("query count = %d", n.QueryCount())
	}
	if n.ConnCount() != 1 {
		t.Fatalf("conn count = %d", n.ConnCount())
	}
}

func TestSQLNodeAuthFailure(t *testing.T) {
	env := newEnv(t)
	tn, _ := env.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{Password: "pw"})
	n := env.startNode(t, tn)

	if _, err := wire.Connect(n.Addr(), map[string]string{"tenant": "acme", "password": "wrong"}); err == nil {
		t.Fatal("wrong password accepted")
	}
	if _, err := wire.Connect(n.Addr(), map[string]string{"tenant": "other", "password": "pw"}); err == nil {
		t.Fatal("wrong tenant accepted")
	}
}

func TestSQLNodePreWarmedConnectionWaits(t *testing.T) {
	// The §4.3.1 optimization: the listener is open before the tenant is
	// assigned; a client handshake blocks (no TCP reset) and completes once
	// the "certificates" arrive.
	env := newEnv(t)
	tn, _ := env.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{})
	n := env.startNode(t, nil) // not yet assigned

	type result struct {
		c   *wire.Client
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := wire.Connect(n.Addr(), map[string]string{"tenant": "acme"})
		done <- result{c, err}
	}()
	select {
	case <-done:
		t.Fatal("handshake completed before tenant assignment")
	case <-time.After(50 * time.Millisecond):
	}
	if err := n.AssignTenant(context.Background(), tn); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer r.c.Close()
		if _, err := r.c.Query("SHOW TABLES"); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake did not complete after assignment")
	}
	// Double assignment is rejected.
	if err := n.AssignTenant(context.Background(), tn); err == nil {
		t.Fatal("double assignment accepted")
	}
}

func TestSQLNodeRegistersInstance(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	tn, _ := env.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n := env.startNode(t, tn)

	ds := kvserver.NewDistSender(env.cluster, kvserver.Identity{Tenant: tn.ID})
	coord := txn.NewCoordinator(ds, env.cluster.Clock(), tn.ID)
	instances, err := sql.ListInstances(ctx, coord, tn.ID)
	if err != nil || len(instances) != 1 {
		t.Fatalf("instances = %v, %v", instances, err)
	}
	if instances[0].Addr != n.Addr() || instances[0].Region != "us-central1" {
		t.Fatalf("instance = %+v", instances[0])
	}
	// Closing deregisters.
	n.Close()
	instances, _ = sql.ListInstances(ctx, coord, tn.ID)
	if len(instances) != 0 {
		t.Fatalf("instances after close = %v", instances)
	}
}

func TestSQLNodeSerializeAndRestoreSession(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	tn, _ := env.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n1 := env.startNode(t, tn)
	n2 := env.startNode(t, tn)

	c, err := wire.Connect(n1.Addr(), map[string]string{"tenant": "acme", "user": "app"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SET app = 'migrated'"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}

	// Proxy-side serialize: raw wire exchange on the same connection.
	// (We reach into the Client's conn via a second client conn; here we
	// simulate the proxy directly.)
	blob := serializeViaWire(t, n1.Addr())

	// Restore onto node 2.
	conn, err := netDial(n2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, wire.MsgRestore, &wire.Restore{Data: blob}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgAuth {
		t.Fatalf("restore response = %c, %v", typ, err)
	}
	var auth wire.Auth
	wire.Decode(payload, &auth)
	if !auth.OK {
		t.Fatalf("restore rejected: %s", auth.Msg)
	}
	// The restored session still has its settings and can run queries.
	wire.WriteMessage(conn, wire.MsgQuery, &wire.Query{SQL: "SELECT COUNT(*) FROM t"})
	typ, payload, err = wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgResult {
		t.Fatalf("restored query = %c, %v", typ, err)
	}
	var res wire.Result
	wire.Decode(payload, &res)
	if res.Err != "" {
		t.Fatalf("restored query error: %s", res.Err)
	}
}

// serializeViaWire opens a session, sets state, and asks the node to
// serialize it, returning the blob.
func serializeViaWire(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire.WriteMessage(conn, wire.MsgStartup, &wire.Startup{Params: map[string]string{"tenant": "acme", "user": "app"}})
	typ, _, err := wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgAuth {
		t.Fatalf("startup = %c %v", typ, err)
	}
	wire.WriteMessage(conn, wire.MsgQuery, &wire.Query{SQL: "SET app = 'migrated'"})
	if typ, _, err = wire.ReadMessage(conn); err != nil || typ != wire.MsgResult {
		t.Fatalf("set = %c %v", typ, err)
	}
	wire.WriteMessage(conn, wire.MsgSerialize, &wire.Serialize{})
	typ, payload, err := wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgSerialized {
		t.Fatalf("serialize = %c %v", typ, err)
	}
	var ser wire.Serialized
	wire.Decode(payload, &ser)
	if ser.Err != "" {
		t.Fatalf("serialize error: %s", ser.Err)
	}
	return ser.Data
}

func TestSQLNodeDrainRefusesNewConns(t *testing.T) {
	env := newEnv(t)
	tn, _ := env.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{})
	n := env.startNode(t, tn)
	n.Drain()
	if !n.Draining() {
		t.Fatal("not draining")
	}
	c, err := wire.Connect(n.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err) // auth still succeeds; the first query is refused
	}
	defer c.Close()
	if _, err := c.Query("SHOW TABLES"); err == nil {
		t.Fatal("draining node served a new connection")
	}
}

func TestSQLNodeSyntheticLoadAndCPUReporting(t *testing.T) {
	env := newEnv(t)
	tn, _ := env.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{})
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	n := NewSQLNode(SQLNodeConfig{
		InstanceID: atomic.AddInt64(&instanceIDs, 1),
		Cluster:    env.cluster,
		Region:     "us-central1",
		Clock:      mc,
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AssignTenant(context.Background(), tn); err != nil {
		t.Fatal(err)
	}
	n.SetSyntheticLoad(2.5)
	mc.Advance(10 * time.Second)
	got := n.CumulativeCPUSeconds()
	if got < 24.9 || got > 25.1 {
		t.Fatalf("cumulative cpu = %f, want ~25", got)
	}
	n.SetSyntheticLoad(0)
	mc.Advance(10 * time.Second)
	if after := n.CumulativeCPUSeconds(); after-got > 0.1 {
		t.Fatalf("cpu accrued after load stopped: %f", after-got)
	}
}

// TestCloseCutsShortAThrottledSession closes a node while a session sleeps
// off its tenant's quota debt. Close must not wait out the throttle.
func TestCloseCutsShortAThrottledSession(t *testing.T) {
	env := newEnv(t)
	// A quota this small throttles any statement for minutes.
	tn, _ := env.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{QuotaVCPUs: 1e-6})
	n := env.startNode(t, tn)
	c, err := wire.Connect(n.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	queried := make(chan struct{})
	go func() {
		defer close(queried)
		defer c.Close()
		c.Query("CREATE TABLE t (a INT PRIMARY KEY)")
	}()
	for n.QueryCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	n.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v behind a throttled session", took)
	}
	<-queried
}

func TestMeteredSenderAccumulates(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	tn, _ := env.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	n := env.startNode(t, tn)
	c, err := wire.Connect(n.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Query("CREATE TABLE t (a INT PRIMARY KEY)")
	c.Query("INSERT INTO t VALUES (1)")
	c.Query("SELECT * FROM t")
	n.mu.Lock()
	f := n.mu.metered.Features()
	batches := n.mu.metered.Batches()
	n.mu.Unlock()
	if f.ReadBatches == 0 || f.WriteBatches == 0 || batches == 0 {
		t.Fatalf("metering empty: %+v (%d batches)", f, batches)
	}
	if n.ECPUConsumedTokens() <= 0 {
		t.Fatal("no eCPU recorded")
	}
}

// netDial is a tiny helper for raw wire exchanges in tests.
func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
