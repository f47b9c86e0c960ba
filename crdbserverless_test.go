package crdbserverless

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"crdbserverless/internal/admission"
	"crdbserverless/internal/autoscaler"
	"crdbserverless/internal/core"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/proxy"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/server"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
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
	orch := s.Orchestrator("us-central1")
	if pods := orch.PodsForTenant("acme"); len(pods) != 0 {
		t.Fatalf("pods after suspend = %d", len(pods))
	}
	metrics := s.RegionMetrics("us-central1")
	cold := counter(metrics, "orchestrator.cold_resumes")

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
	pods := len(orch.PodsForTenant("acme"))
	if got := counter(metrics, "orchestrator.cold_resumes") - cold; pods != 1 || got != 1 {
		t.Fatalf("after cold start: %d pods, %d cold resumes; want 1, 1", pods, got)
	}
}

// TestSuspendUnknownTenant: suspending a tenant that does not exist is an
// error, not a silent no-op.
func TestSuspendUnknownTenant(t *testing.T) {
	s := newServerless(t, Options{})
	if err := s.Suspend(context.Background(), "ghost"); !errors.Is(err, core.ErrTenantNotFound) {
		t.Fatalf("Suspend(ghost) = %v, want %v", err, core.ErrTenantNotFound)
	}
}

// TestTickSuspendsIdleTenant pins the product's scale-to-zero: with the
// autoscaler's loop ticking every 3 s, a tenant with no load and no
// connections keeps its pod through 4 idle minutes and is suspended to zero
// pods by 6.
func TestTickSuspendsIdleTenant(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	ctx := context.Background()
	tenant, err := s.CreateTenant(ctx, "sleepy", TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orch := s.Orchestrator("us-central1")
	if _, err := orch.ScaleTenant(ctx, tenant, 1); err != nil {
		t.Fatal(err)
	}
	check := func(after string, pods int) {
		t.Helper()
		if got := len(orch.PodsForTenant("sleepy")); got != pods {
			t.Fatalf("after %s idle: pods=%d, want %d", after, got, pods)
		}
	}
	clock.Advance(4 * time.Minute)
	check("4m", 1)
	clock.Advance(2 * time.Minute)
	check("6m", 0)
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

// TestKVUpkeepMovesLeaseOffCordonedNode: the deployment's KV upkeep loop
// runs on its clock with no caller ticking. Once the node holding a range's
// lease is cordoned, one 100 ms advance of a manual clock hands the lease to
// a live replica.
func TestKVUpkeepMovesLeaseOffCordonedNode(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{Clock: clock})
	if _, err := s.CreateTenant(context.Background(), "acme", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	c := s.Cluster()
	loads := c.RangeLoads()
	rangeID := loads[len(loads)-1].RangeID // the newest, from the tenant split
	holder := func() kvserver.NodeID {
		for _, rl := range c.RangeLoads() {
			if rl.RangeID == rangeID {
				return rl.Leaseholder
			}
		}
		t.Fatalf("range %d is gone", rangeID)
		return 0
	}
	n, ok := c.Node(holder())
	if !ok {
		t.Fatalf("range %d has no leaseholder", rangeID)
	}
	n.SetCordoned(true)
	if lh := holder(); lh != 0 {
		t.Fatalf("range %d: node %d holds the lease with its holder cordoned and no time passed", rangeID, lh)
	}
	clock.Advance(100 * time.Millisecond)
	if n, ok := c.Node(holder()); !ok || !n.Live() {
		t.Fatalf("range %d: no live replica holds the lease 100ms after its holder was cordoned", rangeID)
	}
}

// TestIdleTenantScalesToZeroUntended: a tenant that connects through the
// proxy, runs a statement and disconnects has no pods once six idle
// minutes pass on the deployment's clock. Nothing but the clock moves: the
// autoscaler's loop notices the idle tenant and suspends it.
func TestIdleTenantScalesToZeroUntended(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	if _, err := s.CreateTenant(context.Background(), "acme", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	connectAndClose(t, s, "us-central1", "acme")
	clock.Advance(6 * time.Minute)
	if pods := len(s.Orchestrator("us-central1").PodsForTenant("acme")); pods != 0 {
		t.Fatalf("acme has %d pods after 6 idle minutes, want 0", pods)
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
		{Options{}, 4},
		{Baseline{}, 6},
		{lsm.Options{}, 10},
		{kvserver.ClusterConfig{}, 3},
		{kvserver.Config{}, 2},
		{autoscaler.Config{}, 2},
		{admission.CPUQueueOptions{}, 4},
		{admission.WriteQueueOptions{}, 1},
		{orchestrator.Config{}, 5},
		{server.SQLNodeConfig{}, 12},
		{proxy.Config{}, 7},
		{tenantobs.Config{}, 3},
		{trace.Options{}, 3},
		{raftlite.Config{}, 6},
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
	// Admission control is on: KV traffic passes the admission queues.
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
	var cpuAdmitted, writeAdmitted int64
	for _, n := range nodes {
		cpu, write := n.AdmissionStats()
		cpuAdmitted += cpu.Admitted
		writeAdmitted += write.Admitted
	}
	if cpuAdmitted == 0 || writeAdmitted == 0 {
		t.Errorf("nodes admitted %d CPU and %d write requests, want both > 0", cpuAdmitted, writeAdmitted)
	}
}
