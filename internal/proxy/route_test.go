package proxy

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"crdbserverless/internal/core"
	"crdbserverless/internal/wire"
)

// countingDir is a Directory that returns a fixed backend list and counts
// its lookups.
type countingDir struct {
	backends []Backend
	lookups  atomic.Int64
}

func (d *countingDir) Lookup(ctx context.Context, tenantName string) ([]Backend, error) {
	d.lookups.Add(1)
	return d.backends, nil
}

// A backend that refuses the connection before the client's first request,
// because it has stopped or is draining, is a routing miss: the proxy routes
// once more, and the client connects and queries as if nothing happened.
// The miss is not the client's failure to authenticate.
func TestRouteRetriesRefusedBackend(t *testing.T) {
	for _, refusal := range []string{"stopped", "draining"} {
		t.Run(refusal, func(t *testing.T) {
			e := newEnv(t)
			acme, _ := e.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{})
			refusing, live := e.addNode(t, acme), e.addNode(t, acme)
			if refusal == "stopped" {
				refusing.Close()
			} else {
				refusing.Drain(false)
			}
			dir := &countingDir{backends: []Backend{{Addr: refusing.Addr()}, {Addr: live.Addr()}}}
			p := startProxy(t, Config{Directory: dir})
			c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Query("SHOW TABLES"); err != nil {
				t.Fatal(err)
			}
			if got := dir.lookups.Load(); got != 2 {
				t.Errorf("lookups = %d, want 2", got)
			}
			if got := p.authFailures.Value(); got != 0 {
				t.Errorf("auth failures = %d, want 0", got)
			}
			if got := connsPerBackend(p); len(got) != 1 || got[live.Addr()] != 1 {
				t.Errorf("connections per backend = %v, want %s:1", got, live.Addr())
			}
		})
	}
}

// A refusal of the client's credentials is the client's failure: the proxy
// routes once, counts it, and does not try another backend.
func TestRouteNeverRetriesBadCredentials(t *testing.T) {
	e := newEnv(t)
	acme, _ := e.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{Password: "secret"})
	n1, n2 := e.addNode(t, acme), e.addNode(t, acme)
	dir := &countingDir{backends: []Backend{{Addr: n1.Addr()}, {Addr: n2.Addr()}}}
	p := startProxy(t, Config{Directory: dir})
	_, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme", "password": "bad"})
	var authErr *wire.AuthError
	if !errors.As(err, &authErr) || authErr.Msg != "invalid credentials" {
		t.Fatalf("connect with a bad password = %v, want invalid credentials", err)
	}
	if got := dir.lookups.Load(); got != 1 {
		t.Errorf("lookups = %d, want 1", got)
	}
	if got := p.authFailures.Value(); got != 1 {
		t.Errorf("auth failures = %d, want 1", got)
	}
}
