package proxy

import (
	"context"
	"testing"

	"crdbserverless/internal/core"
	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/wire"
)

// An injected backend death between exchanges must be invisible to the
// client: the session re-routes to another SQL node serving the tenant and
// keeps answering queries (data lives in the shared KV cluster, so only
// session-local state is lost).
func TestBackendKillForcesReconnect(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, err := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.addNode(t, acme)
	e.addNode(t, acme)
	reg := faultinject.New(5, nil)
	p := startProxy(t, Config{Directory: e, Faults: reg})

	conn, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	// The backend dies out from under the session before its next query.
	reg.Enable("proxy.backend.kill", faultinject.Site{Probability: 1, MaxFires: 1})
	if _, err := conn.Query("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("query across backend death = %v", err)
	}
	res, err := conn.Query("SELECT a FROM t")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("follow-up query = %+v, %v", res, err)
	}
	if got := p.backendReconnects.Value(); got != 1 {
		t.Fatalf("backend reconnects = %d, want 1", got)
	}
}

// With a single backend, the reconnect lands on the same (restarted) node;
// the session still survives.
func TestBackendKillReconnectsToSoleBackend(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	acme, err := e.reg.CreateTenant(ctx, "acme", core.TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.addNode(t, acme)
	reg := faultinject.New(6, nil)
	p := startProxy(t, Config{Directory: e, Faults: reg})

	conn, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	reg.Enable("proxy.backend.kill", faultinject.Site{Probability: 1, MaxFires: 1})
	if _, err := conn.Query("SELECT a FROM t"); err != nil {
		t.Fatalf("query across backend death = %v", err)
	}
	if got := p.backendReconnects.Value(); got != 1 {
		t.Fatalf("backend reconnects = %d, want 1", got)
	}
}
