package crdbserverless

import (
	"context"
	"reflect"
	"testing"

	"crdbserverless/internal/admission"
	"crdbserverless/internal/autoscaler"
	"crdbserverless/internal/core"
	"crdbserverless/internal/kvscaler"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/proxy"
	"crdbserverless/internal/server"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/trace"
)

func newServerless(t *testing.T, opts Options) *Serverless {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestEndToEndQuickstart(t *testing.T) {
	s := newServerless(t, Options{})
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "acme", TenantOptions{Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	conn, err := s.Connect("acme", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("CREATE TABLE users (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("INSERT INTO users VALUES ($1, $2)", DInt(1), DString("alice")); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT name FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "alice" {
		t.Fatalf("result = %+v", res)
	}
}

func TestColdStartFromSuspension(t *testing.T) {
	s := newServerless(t, Options{})
	ctx := context.Background()
	s.CreateTenant(ctx, "acme", TenantOptions{})

	// Warm the tenant, write data, then suspend to zero.
	conn, err := s.Connect("acme", "")
	if err != nil {
		t.Fatal(err)
	}
	conn.Query("CREATE TABLE t (a INT PRIMARY KEY)")
	conn.Query("INSERT INTO t VALUES (1)")
	conn.Close()
	if err := s.Suspend(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	tn, _ := s.Registry().GetByName("acme")
	if tn.State != core.StateSuspended {
		t.Fatalf("state = %s", tn.State)
	}
	if pods := s.Orchestrator("us-central1").PodsForTenant("acme"); len(pods) != 0 {
		t.Fatalf("pods after suspend = %d", len(pods))
	}

	// Reconnecting is a cold start: resume + warm pod + first query.
	conn2, err := s.Connect("acme", "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	res, err := conn2.Query("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("cold query = %+v, %v", res, err)
	}
	tn, _ = s.Registry().GetByName("acme")
	if tn.State != core.StateActive {
		t.Fatalf("state after cold start = %s", tn.State)
	}
}

func TestMultiTenantIsolationThroughFullStack(t *testing.T) {
	s := newServerless(t, Options{})
	ctx := context.Background()
	s.CreateTenant(ctx, "a", TenantOptions{})
	s.CreateTenant(ctx, "b", TenantOptions{})
	ca, _ := s.Connect("a", "")
	defer ca.Close()
	cb, _ := s.Connect("b", "")
	defer cb.Close()
	ca.Query("CREATE TABLE secrets (id INT PRIMARY KEY, v STRING)")
	ca.Query("INSERT INTO secrets VALUES (1, 'a-only')")
	// Tenant b sees no such table.
	if _, err := cb.Query("SELECT * FROM secrets"); err == nil {
		t.Fatal("tenant b read tenant a's table")
	}
	// Same-named table is fully independent.
	cb.Query("CREATE TABLE secrets (id INT PRIMARY KEY, v STRING)")
	res, err := cb.Query("SELECT COUNT(*) FROM secrets")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("tenant b count = %+v, %v", res, err)
	}
}

func TestMultiRegionDeployment(t *testing.T) {
	s := newServerless(t, Options{
		Regions:          []Region{"us-central1", "europe-west1"},
		KVNodesPerRegion: 2,
	})
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "acme", TenantOptions{
		Regions: []Region{"us-central1", "europe-west1"},
	}); err != nil {
		t.Fatal(err)
	}
	cu, err := s.ConnectRegion("us-central1", "acme", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	cu.Query("CREATE TABLE t (a INT PRIMARY KEY)")
	cu.Query("INSERT INTO t VALUES (42)")
	// A connection in the other region sees the same data (one global KV
	// cluster underneath).
	ce, err := s.ConnectRegion("europe-west1", "acme", "")
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	res, err := ce.Query("SELECT a FROM t")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("cross-region read = %+v, %v", res, err)
	}
	// Creating a tenant in an undeployed region fails.
	if _, err := s.CreateTenant(ctx, "bad", TenantOptions{Regions: []Region{"mars-east1"}}); err == nil {
		t.Fatal("undeployed region accepted")
	}
}

func TestSQLSessionDirectPath(t *testing.T) {
	s := newServerless(t, Options{})
	ctx := context.Background()
	s.CreateTenant(ctx, "acme", TenantOptions{})
	sess, err := s.SQLSession("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(ctx, "CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Execute(ctx, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("direct session = %+v, %v", res, err)
	}
	if _, err := s.SQLSession("ghost"); err == nil {
		t.Fatal("session for unknown tenant created")
	}
	if _, err := s.TenantID("acme"); err != nil {
		t.Fatal(err)
	}
}

func TestTickRunsMaintenance(t *testing.T) {
	s := newServerless(t, Options{})
	ctx := context.Background()
	s.CreateTenant(ctx, "acme", TenantOptions{})
	if err := s.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitIdle(ctx, 3, 0); err != nil {
		t.Fatal(err)
	}
}

// TestConfigSurface pins the configuration surface: each option struct's
// exported field count, and the assembly New(Options{}) builds. Every option
// doubles the configurations tests and benchmarks must cover, so adding one
// is an edit here, made with the caller that needs it.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		fields int
	}{
		{Options{}, 5},
		{lsm.Options{}, 12},
		{kvserver.ClusterConfig{}, 5},
		{kvserver.Config{}, 3},
		{autoscaler.Config{}, 5},
		{admission.CPUQueueOptions{}, 4},
		{admission.WriteQueueOptions{}, 1},
		{orchestrator.Config{}, 12},
		{server.SQLNodeConfig{}, 9},
		{proxy.Config{}, 8},
		{tenantobs.Config{}, 3},
		{trace.Options{}, 3},
		{kvscaler.Config{}, 3},
	} {
		typ := reflect.TypeOf(c.cfg)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, f.Name)
			}
		}
		if len(names) != c.fields {
			t.Errorf("%s has %d exported fields %v, want %d", typ, len(names), names, c.fields)
		}
	}

	s := newServerless(t, Options{})
	nodes := s.Cluster().Nodes()
	if len(nodes) != 3 {
		t.Fatalf("KV nodes = %d, want 3", len(nodes))
	}
	for _, n := range nodes {
		if n.VCPUs() != 8 {
			t.Errorf("KV node %d has %d vCPUs, want 8", n.ID(), n.VCPUs())
		}
	}
	orch := s.Orchestrator("us-central1")
	if got := orch.WarmCount(); got != 4 {
		t.Errorf("warm pool = %d pods, want 4", got)
	}
	if got := orch.NodeVCPUs(); got != 4 {
		t.Errorf("SQL pods have %d vCPUs, want 4", got)
	}
	for _, d := range s.Cluster().Descriptors() {
		if len(d.Replicas) != 3 {
			t.Errorf("range %d has %d replicas, want 3", d.RangeID, len(d.Replicas))
		}
	}
	// Admission is off: KV traffic never passes the admission queues.
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "acme", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	sess, err := s.SQLSession("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(ctx, "CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	var batches int64
	for _, n := range nodes {
		batches += n.BatchCount()
		cpu, write := n.AdmissionStats()
		if cpu.Admitted != 0 || write.Admitted != 0 {
			t.Errorf("node %d admitted %d CPU and %d write requests with admission off", n.ID(), cpu.Admitted, write.Admitted)
		}
	}
	if batches == 0 {
		t.Fatal("no KV batches served; the admission check saw no traffic")
	}
}
