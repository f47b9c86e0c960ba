package orchestrator

import (
	"context"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/wire"
)

type env struct {
	cluster *kvserver.Cluster
	reg     *core.Registry
	clock   *timeutil.ManualClock
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
	return &env{cluster: c, reg: reg, clock: timeutil.NewManualClock(time.Unix(0, 0))}
}

func (e *env) newOrch(t *testing.T, warm int, preStart bool) *Orchestrator {
	t.Helper()
	o, err := New(Config{
		Cluster:         e.cluster,
		Registry:        e.reg,
		Region:          "us-central1",
		WarmPoolSize:    warm,
		PreStartProcess: preStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

func TestWarmPoolMaintained(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 3, true)
	if got := o.WarmCount(); got != 3 {
		t.Fatalf("warm = %d", got)
	}
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	pod, err := o.AssignPod(ctx, tn)
	if err != nil {
		t.Fatal(err)
	}
	if pod.State() != PodAssigned || pod.TenantName() != "acme" {
		t.Fatalf("pod = %s %s", pod.State(), pod.TenantName())
	}
	// The pool refills asynchronously.
	deadline := time.Now().Add(3 * time.Second)
	for o.WarmCount() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("warm pool not refilled: %d", o.WarmCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPreStartedPodServesImmediately(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 1, true)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	pod, err := o.AssignPod(ctx, tn)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Connect(pod.Node.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
}

func TestUnoptimizedPodStartsAtAssignment(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 1, false)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	// Warm pod has no listener yet.
	o.mu.Lock()
	warmAddr := o.mu.warm[0].Node.Addr()
	o.mu.Unlock()
	if warmAddr != "" {
		t.Fatalf("unoptimized warm pod has a listener: %q", warmAddr)
	}
	pod, err := o.AssignPod(ctx, tn)
	if err != nil {
		t.Fatal(err)
	}
	if pod.Node.Addr() == "" {
		t.Fatal("assigned pod has no listener")
	}
}

func TestScaleUpAndDown(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 2, true)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})

	pods, err := o.ScaleTenant(ctx, tn, 3)
	if err != nil || len(pods) != 3 {
		t.Fatalf("scale up = %d pods, %v", len(pods), err)
	}
	// Scale down to 1: two pods drain.
	pods, err = o.ScaleTenant(ctx, tn, 1)
	if err != nil || len(pods) != 1 {
		t.Fatalf("scale down = %d pods, %v", len(pods), err)
	}
	draining := 0
	for _, p := range o.PodsForTenant("acme") {
		if p.State() == PodDraining {
			draining++
		}
	}
	if draining != 2 {
		t.Fatalf("draining = %d", draining)
	}
	// Tick reaps connection-free draining pods.
	o.Tick()
	if got := len(o.PodsForTenant("acme")); got != 1 {
		t.Fatalf("pods after reap = %d", got)
	}
}

func TestDrainingPodReusedBeforeWarm(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 2, true)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	o.ScaleTenant(ctx, tn, 2)
	pods := o.PodsForTenant("acme")
	// Scale down then immediately back up: the drained pod is reused.
	o.ScaleTenant(ctx, tn, 1)
	o.ScaleTenant(ctx, tn, 2)
	after := o.PodsForTenant("acme")
	if len(after) != 2 {
		t.Fatalf("pods = %d", len(after))
	}
	same := 0
	for _, p := range pods {
		for _, q := range after {
			if p == q {
				same++
			}
		}
	}
	if same != 2 {
		t.Fatalf("expected both original pods reused, got %d", same)
	}
}

func TestSuspendAndResumeViaLookup(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 2, true)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	o.ScaleTenant(ctx, tn, 2)

	if err := o.SuspendTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.reg.GetByName("acme"); got.State != core.StateSuspended {
		t.Fatalf("state = %s", got.State)
	}
	if got := len(o.PodsForTenant("acme")); got != 0 {
		t.Fatalf("pods after suspend = %d", got)
	}

	// A proxy lookup resumes the tenant and pulls a warm pod (§4.2.3).
	backends, err := o.Lookup(ctx, "acme")
	if err != nil || len(backends) != 1 {
		t.Fatalf("lookup = %v, %v", backends, err)
	}
	if got, _ := e.reg.GetByName("acme"); got.State != core.StateActive {
		t.Fatalf("state after lookup = %s", got.State)
	}
	// The new backend serves.
	c, err := wire.Connect(backends[0].Addr, map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnknownAndDropped(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 1, true)
	ctx := context.Background()
	if _, err := o.Lookup(ctx, "ghost"); err == nil {
		t.Fatal("unknown tenant lookup succeeded")
	}
	e.reg.CreateTenant(ctx, "gone", core.TenantOptions{})
	e.reg.Drop(ctx, "gone")
	if _, err := o.Lookup(ctx, "gone"); err == nil {
		t.Fatal("dropped tenant lookup succeeded")
	}
}

func TestDrainTimeoutForcesStop(t *testing.T) {
	e := newEnv(t)
	o, err := New(Config{
		Cluster:         e.cluster,
		Registry:        e.reg,
		Region:          "us-central1",
		WarmPoolSize:    1,
		PreStartProcess: true,
		Clock:           e.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	o.ScaleTenant(ctx, tn, 2)
	pods := o.PodsForTenant("acme")
	// Hold a connection open on both pods so draining cannot complete.
	for _, p := range pods {
		c, err := wire.Connect(p.Node.Addr(), map[string]string{"tenant": "acme"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Query("SHOW TABLES"); err != nil {
			t.Fatal(err)
		}
	}
	o.ScaleTenant(ctx, tn, 1)
	o.Tick()
	if got := len(o.PodsForTenant("acme")); got != 2 {
		t.Fatalf("draining pod with conns reaped early: %d", got)
	}
	e.clock.Advance(drainTimeout)
	o.Tick()
	if got := len(o.PodsForTenant("acme")); got != 1 {
		t.Fatalf("drain timeout did not stop pod: %d", got)
	}
}

// Stopped pods are forgotten: after many resume/suspend cycles, and a
// scale-down reaped by Tick, the orchestrator tracks only its warm pool and
// the pods still serving.
func TestStoppedPodsAreForgotten(t *testing.T) {
	e := newEnv(t)
	o := e.newOrch(t, 2, true)
	ctx := context.Background()
	tn, _ := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	tracked := func() (all, warm, live int) {
		o.mu.Lock()
		defer o.mu.Unlock()
		return len(o.mu.all), len(o.mu.warm), len(o.mu.byTenant["acme"])
	}

	for i := 0; i < 200; i++ {
		if _, err := o.Lookup(ctx, "acme"); err != nil {
			t.Fatal(err)
		}
		if err := o.SuspendTenant(ctx, "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if all, warm, live := tracked(); live != 0 || all != warm {
		t.Fatalf("after 200 cycles: %d pods tracked, %d warm, %d live", all, warm, live)
	}

	if _, err := o.Lookup(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ScaleTenant(ctx, tn, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ScaleTenant(ctx, tn, 1); err != nil {
		t.Fatal(err)
	}
	o.Tick() // the drained pod holds no connection, so it is reaped
	if all, warm, live := tracked(); live != 1 || all != warm+live {
		t.Fatalf("after scale-down: %d pods tracked, %d warm, %d live", all, warm, live)
	}
}
