package crdbserverless

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/autoscaler"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

// connectAndClose opens a connection to the tenant through region r, runs
// one statement and closes it, then waits until the region's pods report
// no connections, so the autoscaler's next read sees the tenant idle.
func connectAndClose(t *testing.T, s *Serverless, r Region, tenant string) {
	t.Helper()
	c, err := s.ConnectRegion(r, tenant, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitNoConns(t, s, r, tenant)
}

// waitNoConns waits until the region's pods of the tenant report no
// connections.
func waitNoConns(t *testing.T, s *Serverless, r Region, tenant string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range s.Orchestrator(r).PodsForTenant(tenant) {
		for p.Node.ConnCount() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("pod %d still has %d connections", p.Node.InstanceID(), p.Node.ConnCount())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// counter reads a counter from a metric registry.
func counter(reg *metric.Registry, name string) int64 {
	return reg.Get(name).(*metric.Counter).Value()
}

// TestRegionKeepsAutoscalingAfterAnotherSuspends: a tenant idle in one
// region is suspended there. Its pod in the other region still serves: a
// new connection through that region is no cold start, and that region's
// autoscaler still scales the pod: 6 vCPUs of load reads as a 1.33 × 6
// peak, two 4-vCPU pods.
func TestRegionKeepsAutoscalingAfterAnotherSuspends(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	regions := []Region{"us-central1", "europe-west1"}
	s := newServerless(t, Options{Regions: regions, KVNodesPerRegion: 1, Clock: clock})
	if _, err := s.CreateTenant(context.Background(), "acme", TenantOptions{Regions: regions}); err != nil {
		t.Fatal(err)
	}
	us, eu := s.Orchestrator("us-central1"), s.Orchestrator("europe-west1")
	connectAndClose(t, s, "europe-west1", "acme")
	cu, err := s.ConnectRegion("us-central1", "acme", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()

	clock.Advance(6 * time.Minute)
	if len(eu.PodsForTenant("acme")) != 0 || len(us.PodsForTenant("acme")) != 1 {
		t.Fatalf("after 6m: europe-west1 pods=%d, us-central1 pods=%d; want 0, 1",
			len(eu.PodsForTenant("acme")), len(us.PodsForTenant("acme")))
	}
	usMetrics := s.RegionMetrics("us-central1")
	cold := counter(usMetrics, "orchestrator.cold_resumes")
	cu2, err := s.ConnectRegion("us-central1", "acme", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cu2.Close()
	if got := counter(usMetrics, "orchestrator.cold_resumes"); got != cold {
		t.Fatalf("a connection through us-central1, which serves the tenant, counted %d cold resumes", got-cold)
	}

	us.PodsForTenant("acme")[0].Node.SetSyntheticLoad(6)
	clock.Advance(15 * time.Second)
	if got := len(us.PodsForTenant("acme")); got != 2 {
		t.Fatalf("us-central1 pods under 6 vCPUs = %d, want 2", got)
	}
}

// TestTickReapsDroppedTenantPods: a dropped tenant's idle pod is stopped
// like a suspended tenant's, and stopping it is not an error.
func TestTickReapsDroppedTenantPods(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "gone", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	connectAndClose(t, s, "us-central1", "gone")
	if err := s.Registry().Drop(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Minute)
	if got := len(s.Orchestrator("us-central1").PodsForTenant("gone")); got != 0 {
		t.Fatalf("dropped tenant has %d pods after 6 idle minutes, want 0", got)
	}
}

// TestSuspendedBurstResumesOnce: eight connections that arrive together
// at a tenant scaled to zero share one cold start: one pod leaves the warm
// pool, and one cold resume is counted.
func TestSuspendedBurstResumesOnce(t *testing.T) {
	s := newServerless(t, Options{})
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "acme", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	connectAndClose(t, s, "us-central1", "acme")
	if err := s.Suspend(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	metrics := s.RegionMetrics("us-central1")
	cold := counter(metrics, "orchestrator.cold_resumes")

	const burst = 8
	start := make(chan struct{})
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := s.Connect("acme", "")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Query("SELECT COUNT(*) FROM t")
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	pods := len(s.Orchestrator("us-central1").PodsForTenant("acme"))
	if got := counter(metrics, "orchestrator.cold_resumes") - cold; pods != 1 || got != 1 {
		t.Fatalf("after %d concurrent connects: %d pods, %d cold resumes; want 1, 1", burst, pods, got)
	}
}

// TestSuspendWritesNoTenantRecord: suspension and the cold start after it
// are pod changes, not tenant-record writes. Suspending tenants that never
// ran commits nothing, and a connect, query, close and suspend cycle
// commits only the pod's system.sql_instances row, inserted and deleted.
func TestSuspendWritesNoTenantRecord(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	ctx := context.Background()
	entries := func() int64 { return counter(s.Metrics(), "raft.commit.entries") }

	const fleet = 100
	for i := 0; i < fleet; i++ {
		if _, err := s.CreateTenant(ctx, fmt.Sprintf("never-%d", i), TenantOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before := entries()
	for i := 0; i < fleet; i++ {
		if err := s.Suspend(ctx, fmt.Sprintf("never-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := entries() - before; got != 0 {
		t.Errorf("suspending %d tenants that never ran committed %d raft entries, want 0", fleet, got)
	}

	if _, err := s.CreateTenant(ctx, "ran", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	connectAndClose(t, s, "us-central1", "ran")
	if err := s.Suspend(ctx, "ran"); err != nil {
		t.Fatal(err)
	}
	before = entries()
	c, err := s.Connect("ran", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Suspend(ctx, "ran"); err != nil {
		t.Fatal(err)
	}
	if got := entries() - before; got != 2 {
		t.Errorf("a connect, query, close and suspend cycle committed %d raft entries, want 2", got)
	}
}

// liveHeap is the bytes of reachable heap objects: HeapAlloc after two
// collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestNeverRunTenantsHoldNoControlPlaneState fills a deployment with 2 100
// tenants that are created and suspended without ever running. Each costs
// its registry record and keyspace boundary, not autoscaler or
// observability state: an autoscaler round allocates the same at 10 and
// at 2 000 of them, and a tenant that connects after them all, past the
// observability plane's 2 048-tenant cap, still gets a series of its own.
//
// Advancing the deployment's clock would run 30 KV upkeep rounds beside its
// autoscaler's, so the rounds counted are those of an autoscaler over the
// region's orchestrator on a clock of its own, which nothing else reads.
func TestNeverRunTenantsHoldNoControlPlaneState(t *testing.T) {
	const fleet = 2100
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	ctx := context.Background()
	asClock := timeutil.NewManualClock(time.Unix(0, 0))
	as := autoscaler.New(autoscaler.Config{Orchestrator: s.Orchestrator("us-central1"), Clock: asClock})
	tickAllocs := func() float64 {
		return testing.AllocsPerRun(20, func() {
			asClock.Advance(3 * time.Second)
			if err := as.Tick(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}

	base := liveHeap()
	var at10 float64
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("susp-%d", i)
		if _, err := s.CreateTenant(ctx, name, TenantOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Suspend(ctx, name); err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case 10:
			at10 = tickAllocs()
		case 2000:
			if at2000 := tickAllocs(); at2000 != at10 {
				t.Errorf("an autoscaler round allocates %v at 10 suspended tenants and %v at 2 000", at10, at2000)
			}
		}
	}
	perTenant := int64(liveHeap()-base) / fleet
	t.Logf("%d B per suspended tenant, %v allocs per autoscaler round", perTenant, at10)
	if perTenant > 2048 {
		t.Errorf("a suspended tenant costs %d B, want at most 2 KiB", perTenant)
	}

	if _, err := s.CreateTenant(ctx, "late", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	connectAndClose(t, s, "us-central1", "late")
	if got := s.Obs().Absorbed(); got != 0 {
		t.Errorf("observability plane absorbed %d tenants into overflow, want 0", got)
	}
	var page strings.Builder
	if err := s.Obs().WriteTenant(&page, "late", clock.Now()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(page.String(), "== tenant late ") {
		t.Errorf("late tenant has no series of its own:\n%s", page.String())
	}
}

// TestSuspendAndScaleDownRacingConnects: a client that connects and runs a
// query while its tenant is suspended, or while a scale-down drains one of
// its two pods, sees no error (paper §4.2.3, §4.3.1). A pod stops only once
// its last session ends, and the proxy routes once more when a pod refuses
// the connection because it is stopping or draining. Each round starts the
// client, then runs the scale event 0–180 µs later.
func TestSuspendAndScaleDownRacingConnects(t *testing.T) {
	s := newServerless(t, Options{KVNodesPerRegion: 1})
	ctx := context.Background()
	tn, err := s.CreateTenant(ctx, "acme", TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	connectAndClose(t, s, "us-central1", "acme")
	orch := s.Orchestrator("us-central1")
	rng := rand.New(rand.NewSource(59))
	const rounds = 200
	race := func(name string, before, event func()) {
		failed := 0
		var first error
		for i := 0; i < rounds; i++ {
			before()
			done := make(chan error, 1)
			go func() {
				c, err := s.Connect("acme", "")
				if err == nil {
					_, err = c.Query("SELECT COUNT(*) FROM t")
					c.Close()
				}
				done <- err
			}()
			time.Sleep(time.Duration(rng.Intn(181)) * time.Microsecond)
			event()
			if err := <-done; err != nil {
				if failed++; first == nil {
					first = err
				}
			}
		}
		if failed > 0 {
			t.Errorf("%s: %d of %d clients failed; first: %v", name, failed, rounds, first)
		}
	}
	race("suspend", func() {}, func() { orch.SuspendTenant("acme") })
	scaleTo := func(n int) {
		if _, err := orch.ScaleTenant(ctx, tn, n); err != nil {
			t.Fatal(err)
		}
	}
	race("scale-down", func() { orch.Tick(); scaleTo(2) }, func() { scaleTo(1) })
}

// One tenant, one row: a tenant driven through the proxy, its SQL pod, KV
// and the autoscaler records every signal on the state its first pod bound
// by name. No layer resolves it by ID into a second state named after the
// ID, so /debug/metrics has no series labelled that way.
func TestOneTenantOneRow(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "acme", TenantOptions{Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	id, err := s.TenantID("acme")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Connect("acme", "pw")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"CREATE TABLE kv (k INT PRIMARY KEY, v STRING)",
		"INSERT INTO kv VALUES (1, 'one')",
		"SELECT v FROM kv WHERE k = 1",
	} {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	c.Close()
	waitNoConns(t, s, "us-central1", "acme")
	// Idle past the suspend deadline: the autoscaler scales acme to zero.
	clock.Advance(6 * time.Minute)
	if pods := len(s.Orchestrator("us-central1").PodsForTenant("acme")); pods != 0 {
		t.Fatalf("acme has %d pods after 6m idle, want 0", pods)
	}

	h := s.DebugHandler()
	var page strings.Builder
	if err := h.WriteTenantz(&page, "acme", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(page.String(), "== tenant acme @") {
		t.Fatalf("drill-down is not acme's row:\n%s", page.String())
	}
	for _, family := range []string{
		"conns", "queries ok", "batches", "ru", "one_phase", "read_only", "admission wait: n", "suspend",
	} {
		m := regexp.MustCompile(regexp.QuoteMeta(family) + `=([0-9.]+)`).FindStringSubmatch(page.String())
		if m == nil || strings.Trim(m[1], "0.") == "" {
			t.Errorf("drill-down records no %s:\n%s", family, page.String())
		}
	}
	var metrics strings.Builder
	if err := h.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if byID := fmt.Sprintf("tenant=%q", id.String()); strings.Contains(metrics.String(), byID) {
		t.Errorf("/debug/metrics has a series labelled %s:\n%s", byID, metrics.String())
	}
	if !strings.Contains(metrics.String(), `proxy_tenant_conns{tenant="acme"} 1`) {
		t.Errorf("/debug/metrics lacks acme's connection:\n%s", metrics.String())
	}
}

// TestControlLoopsRaceTickAndClose: the deployment's loops run their rounds
// inside Advance on one goroutine while another calls Tick and a third
// closes the deployment. CI runs this under the race detector. Once Close
// has returned no loop is scheduled on the clock.
func TestControlLoopsRaceTickAndClose(t *testing.T) {
	for i := 0; i < 5; i++ {
		clock := timeutil.NewManualClock(time.Unix(0, 0))
		s, err := New(Options{KVNodesPerRegion: 1, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateTenant(context.Background(), "acme", TenantOptions{}); err != nil {
			t.Fatal(err)
		}
		connectAndClose(t, s, "us-central1", "acme")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				clock.Advance(50 * time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := s.Tick(context.Background()); err != nil {
					t.Error(err)
				}
			}
		}()
		time.Sleep(time.Duration(i) * time.Millisecond)
		s.Close()
		wg.Wait()
		if n := clock.NumWaiters(); n != 0 {
			t.Fatalf("%d waiters on the clock after Close", n)
		}
	}
}
