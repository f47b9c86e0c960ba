package orchestrator

import (
	"context"
	"testing"

	"crdbserverless/internal/core"
	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/server"
	"crdbserverless/internal/wire"
)

func (e *env) newFaultOrch(t *testing.T, warm int, reg *faultinject.Registry) *Orchestrator {
	t.Helper()
	o, err := New(Config{
		Registry:     e.reg,
		Node:         server.SQLNodeConfig{Cluster: e.cluster, Region: "us-central1"},
		WarmPoolSize: warm,
		Faults:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// A VM crash during cold start (orchestrator.start.crash) is absorbed by
// provisioning: the crashed pod is discarded and a fresh one started.
func TestStartCrashRetriesWithFreshPod(t *testing.T) {
	e := newEnv(t)
	reg := faultinject.New(11, nil)
	reg.Enable("orchestrator.start.crash", faultinject.Site{Probability: 1, MaxFires: 2})
	o := e.newFaultOrch(t, 1, reg)
	if got := o.WarmCount(); got != 1 {
		t.Fatalf("warm = %d after crashes, want 1", got)
	}
	// Two crashed attempts plus the survivor.
	if got := o.podsCreated.Value(); got != 3 {
		t.Fatalf("pods created = %d, want 3", got)
	}
	// Exhausting the retry budget surfaces the failure.
	reg.Enable("orchestrator.start.crash", faultinject.Site{Probability: 1})
	if err := o.EnsureWarm(2); !faultinject.IsInjected(err) {
		t.Fatalf("EnsureWarm under persistent crashes = %v, want injected fault", err)
	}
}

// An evicted pod (orchestrator.pod.evict) stops without draining; the next
// directory lookup re-assigns the tenant from the warm pool and the tenant's
// data — in the shared KV cluster — is still there.
func TestPodEvictionRecoversViaLookup(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	reg := faultinject.New(12, nil)
	o := e.newFaultOrch(t, 2, reg)
	if _, err := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	backends, err := o.Lookup(ctx, "acme")
	if err != nil || len(backends) != 1 {
		t.Fatalf("lookup = %v, %v", backends, err)
	}
	// Write through the first pod so recovery can be checked end to end.
	conn, err := wire.Connect(backends[0].Addr, map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	reg.Enable("orchestrator.pod.evict", faultinject.Site{Probability: 1, MaxFires: 1})
	o.Tick()
	if got := o.podsEvicted.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if pods := o.PodsForTenant("acme"); len(pods) != 0 {
		t.Fatalf("evicted tenant still has %d pods", len(pods))
	}
	// Recovery: the next lookup assigns a fresh pod and the data survives.
	backends, err = o.Lookup(ctx, "acme")
	if err != nil || len(backends) != 1 {
		t.Fatalf("post-eviction lookup = %v, %v", backends, err)
	}
	conn, err = wire.Connect(backends[0].Addr, map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query("SELECT a FROM t")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("post-eviction read = %+v, %v", res, err)
	}
}
