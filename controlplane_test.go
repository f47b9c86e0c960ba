package crdbserverless

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/timeutil"
)

// tickFor advances the manual clock in 3 s steps for d, ticking the
// deployment after each step.
func tickFor(t *testing.T, s *Serverless, clock *timeutil.ManualClock, d time.Duration) {
	t.Helper()
	ctx := context.Background()
	for end := clock.Now().Add(d); clock.Now().Before(end); {
		clock.Advance(3 * time.Second)
		if err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

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

// TestRegionKeepsAutoscalingAfterAnotherSuspends: a tenant idle in one
// region is suspended there, which marks the global record suspended. Its
// pod in the other region still serves, and that region's autoscaler still
// scales it: 6 vCPUs of load reads as a 1.33 × 6 peak, two 4-vCPU pods.
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

	tickFor(t, s, clock, 6*time.Minute)
	tn, err := s.Registry().GetByName("acme")
	if err != nil {
		t.Fatal(err)
	}
	if tn.State != core.StateSuspended || len(eu.PodsForTenant("acme")) != 0 || len(us.PodsForTenant("acme")) != 1 {
		t.Fatalf("after 6m: state=%s, europe-west1 pods=%d, us-central1 pods=%d; want suspended, 0, 1",
			tn.State, len(eu.PodsForTenant("acme")), len(us.PodsForTenant("acme")))
	}

	us.PodsForTenant("acme")[0].Node.SetSyntheticLoad(6)
	tickFor(t, s, clock, 15*time.Second)
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
	tickFor(t, s, clock, 6*time.Minute)
	if got := len(s.Orchestrator("us-central1").PodsForTenant("gone")); got != 0 {
		t.Fatalf("dropped tenant has %d pods after 6 idle minutes, want 0", got)
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
// observability state: the autoscaler's tick allocates the same at 10 and
// at 2 000 of them, and a tenant that connects after them all, past the
// observability plane's 2 048-tenant cap, still gets a series of its own.
func TestNeverRunTenantsHoldNoControlPlaneState(t *testing.T) {
	const fleet = 2100
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	s := newServerless(t, Options{KVNodesPerRegion: 1, Clock: clock})
	ctx := context.Background()
	as := s.autoscalers["us-central1"]
	tickAllocs := func() float64 {
		return testing.AllocsPerRun(20, func() {
			clock.Advance(3 * time.Second)
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
				t.Errorf("autoscaler Tick allocates %v at 10 suspended tenants and %v at 2 000", at10, at2000)
			}
		}
	}
	perTenant := int64(liveHeap()-base) / fleet
	t.Logf("%d B per suspended tenant, %v allocs per autoscaler tick", perTenant, at10)
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
