package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/txn"
)

func newTestRegistry(t *testing.T) *Registry {
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
	reg, err := NewRegistry(c, tenantcost.NewBucketServer(timeutil.NewRealClock()))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestAuthorizerSystemTenantUnrestricted(t *testing.T) {
	a := Authorizer{}
	ba := &kvpb.BatchRequest{Tenant: 5, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: keys.MakeTenantPrefix(5)},
	}}
	if err := a.Authorize(kvserver.Identity{Tenant: keys.SystemTenantID}, ba); err != nil {
		t.Fatalf("system tenant blocked: %v", err)
	}
}

func TestAuthorizerConfinesTenant(t *testing.T) {
	a := Authorizer{}
	own := &kvpb.BatchRequest{Tenant: 5, Requests: []kvpb.Request{
		{Method: kvpb.Put, Key: append(keys.MakeTenantPrefix(5), 'x')},
	}}
	if err := a.Authorize(kvserver.Identity{Tenant: 5}, own); err != nil {
		t.Fatalf("own keyspace blocked: %v", err)
	}
	// Foreign key.
	foreign := &kvpb.BatchRequest{Tenant: 5, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: append(keys.MakeTenantPrefix(6), 'x')},
	}}
	var tae *kvpb.TenantAuthError
	if err := a.Authorize(kvserver.Identity{Tenant: 5}, foreign); !errors.As(err, &tae) {
		t.Fatalf("foreign key allowed: %v", err)
	}
	// Mismatched batch tenant header.
	mismatch := &kvpb.BatchRequest{Tenant: 6, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: append(keys.MakeTenantPrefix(5), 'x')},
	}}
	if err := a.Authorize(kvserver.Identity{Tenant: 5}, mismatch); !errors.As(err, &tae) {
		t.Fatalf("mismatched header allowed: %v", err)
	}
	// Span leaking past the tenant boundary.
	leak := &kvpb.BatchRequest{Tenant: 5, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: keys.MakeTenantPrefix(5), EndKey: keys.MakeTenantPrefix(7)},
	}}
	if err := a.Authorize(kvserver.Identity{Tenant: 5}, leak); !errors.As(err, &tae) {
		t.Fatalf("leaking span allowed: %v", err)
	}
	// Invalid identity.
	if err := a.Authorize(kvserver.Identity{Tenant: 0}, own); !errors.As(err, &tae) {
		t.Fatalf("invalid identity allowed: %v", err)
	}
	// At and just past the span's end, for a tenant whose span end carries
	// over its ID's 0xff low byte.
	for _, id := range []keys.TenantID{5, 0x1ff} {
		span := keys.MakeTenantSpan(id)
		for _, c := range []struct {
			req     kvpb.Request
			allowed bool
		}{
			{kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}, true},
			{kvpb.Request{Method: kvpb.Get, Key: span.EndKey}, false},
			{kvpb.Request{Method: kvpb.Get, Key: span.EndKey.Next()}, false},
			{kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey.Next()}, false},
			{kvpb.Request{Method: kvpb.Scan, Key: span.EndKey, EndKey: span.EndKey.Next()}, false},
		} {
			ba := &kvpb.BatchRequest{Tenant: id, Requests: []kvpb.Request{c.req}}
			err := a.Authorize(kvserver.Identity{Tenant: id}, ba)
			if c.allowed && err != nil {
				t.Errorf("tenant %d, %s %s: %v", id, c.req.Method, c.req.Span(), err)
			}
			if !c.allowed && !errors.As(err, &tae) {
				t.Errorf("tenant %d, %s %s allowed: %v", id, c.req.Method, c.req.Span(), err)
			}
		}
	}
}

// A tenant's batch passes the boundary check without an allocation.
func TestAuthorizeAllocs(t *testing.T) {
	prefix := keys.MakeTenantPrefix(5)
	ba := &kvpb.BatchRequest{Tenant: 5, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: append(prefix.Clone(), 'x')},
		{Method: kvpb.Scan, Key: append(prefix.Clone(), 'a'), EndKey: append(prefix.Clone(), 'z')},
	}}
	a := Authorizer{}
	id := kvserver.Identity{Tenant: 5}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.Authorize(id, ba); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Authorize makes %v allocations on a 2-request batch, want 0", n)
	}
}

func TestCreateTenantCarvesRanges(t *testing.T) {
	reg := newTestRegistry(t)
	ctx := context.Background()
	tn, err := reg.CreateTenant(ctx, "acme", TenantOptions{Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if !tn.ID.IsValid() || tn.ID.IsSystem() {
		t.Fatalf("tenant id = %v", tn.ID)
	}
	// The tenant's span boundaries must be range boundaries.
	span := keys.MakeTenantSpan(tn.ID)
	descs := reg.cluster.Descriptors()
	var startBoundary, endBoundary bool
	for _, d := range descs {
		if d.Span.Key.Equal(span.Key) {
			startBoundary = true
		}
		if d.Span.Key.Equal(span.EndKey) {
			endBoundary = true
		}
		// No range may straddle the tenant boundary.
		if d.Span.ContainsKey(span.Key) && !d.Span.Key.Equal(span.Key) {
			t.Fatalf("range %s straddles tenant start", d)
		}
	}
	if !startBoundary || !endBoundary {
		t.Fatalf("tenant boundaries not split: start=%v end=%v", startBoundary, endBoundary)
	}
}

func TestCreateTenantDuplicate(t *testing.T) {
	reg := newTestRegistry(t)
	ctx := context.Background()
	if _, err := reg.CreateTenant(ctx, "acme", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateTenant(ctx, "acme", TenantOptions{}); err != ErrTenantExists {
		t.Fatalf("duplicate create = %v", err)
	}
	if _, err := reg.CreateTenant(ctx, "", TenantOptions{}); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestTenantLifecycle: a record is live from creation until Drop marks it
// dropped; suspension is no state of the record.
func TestTenantLifecycle(t *testing.T) {
	reg := newTestRegistry(t)
	ctx := context.Background()
	reg.CreateTenant(ctx, "acme", TenantOptions{})

	if tn, _ := reg.GetByName("acme"); tn.Dropped {
		t.Fatal("a new tenant is dropped")
	}
	if err := reg.Drop(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if tn, _ := reg.GetByName("acme"); !tn.Dropped {
		t.Fatal("Drop left the tenant live")
	}
	if err := reg.Drop(ctx, "missing"); err != ErrTenantNotFound {
		t.Fatalf("drop missing = %v", err)
	}
}

func TestTenantDropReclaimsKeyspace(t *testing.T) {
	reg := newTestRegistry(t)
	ctx := context.Background()
	tn, _ := reg.CreateTenant(ctx, "acme", TenantOptions{})

	// Write tenant data through the tenant's own identity.
	ds := kvserver.NewDistSender(reg.cluster, kvserver.Identity{Tenant: tn.ID})
	coord := txn.NewCoordinator(ds, reg.cluster.Clock(), tn.ID)
	k := append(keys.MakeTenantPrefix(tn.ID), []byte("data")...)
	if err := coord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		return tx.Put(ctx, k, []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	// Data is gone (read through the system tenant, which sees everything).
	if err := reg.sysTxn.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		rows, err := tx.Scan(ctx, keys.MakeTenantSpan(tn.ID), 0)
		if err != nil {
			return err
		}
		if len(rows) != 0 {
			t.Fatalf("dropped tenant still has %d rows", len(rows))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.GetByName("acme"); !got.Dropped {
		t.Fatal("dropped tenant's record reads live")
	}
}

func TestRegistryPersistenceReload(t *testing.T) {
	reg := newTestRegistry(t)
	ctx := context.Background()
	reg.CreateTenant(ctx, "acme", TenantOptions{Password: "pw", QuotaVCPUs: 4})
	reg.CreateTenant(ctx, "globex", TenantOptions{})
	reg.Drop(ctx, "globex")

	// A second registry over the same cluster reloads the records.
	reg2, err := NewRegistry(reg.cluster, tenantcost.NewBucketServer(timeutil.NewRealClock()))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := reg2.GetByName("acme")
	if err != nil || tn.Password != "pw" || tn.QuotaVCPUs != 4 || tn.Dropped {
		t.Fatalf("reloaded acme = %+v, %v", tn, err)
	}
	g, err := reg2.GetByName("globex")
	if err != nil || !g.Dropped {
		t.Fatalf("reloaded globex = %+v, %v", g, err)
	}
	// ID allocation continues after the loaded tenants.
	n, err := reg2.CreateTenant(ctx, "initech", TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID <= g.ID {
		t.Fatalf("id %d not beyond loaded ids", n.ID)
	}
	if got := len(reg2.List()); got != 3 {
		t.Fatalf("list = %d tenants", got)
	}
}

func TestTenantQuotaConfigured(t *testing.T) {
	reg := newTestRegistry(t)
	ctx := context.Background()
	tn, _ := reg.CreateTenant(ctx, "acme", TenantOptions{QuotaVCPUs: 2})
	if q := reg.buckets.Quota(tn.ID); q != 2 {
		t.Fatalf("quota = %f", q)
	}
}

func TestCrossTenantIsolationEndToEnd(t *testing.T) {
	// The whole point of cluster virtualization: tenant A cannot read
	// tenant B's rows through the KV API, under any request shape.
	reg := newTestRegistry(t)
	ctx := context.Background()
	a, _ := reg.CreateTenant(ctx, "a", TenantOptions{})
	b, _ := reg.CreateTenant(ctx, "b", TenantOptions{})

	// B writes data.
	bsender := kvserver.NewDistSender(reg.cluster, kvserver.Identity{Tenant: b.ID})
	bcoord := txn.NewCoordinator(bsender, reg.cluster.Clock(), b.ID)
	secret := append(keys.MakeTenantPrefix(b.ID), []byte("secret")...)
	if err := bcoord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		return tx.Put(ctx, secret, []byte("b-data"))
	}); err != nil {
		t.Fatal(err)
	}

	// A attempts reads with its own identity.
	asender := kvserver.NewDistSender(reg.cluster, kvserver.Identity{Tenant: a.ID})
	var tae *kvpb.TenantAuthError
	// Point read of B's key.
	_, err := asender.Send(ctx, &kvpb.BatchRequest{Tenant: b.ID, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: secret},
	}})
	if !errors.As(err, &tae) {
		t.Fatalf("cross-tenant get = %v", err)
	}
	// Scan spanning B's keyspace.
	_, err = asender.Send(ctx, &kvpb.BatchRequest{Tenant: a.ID, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: keys.MakeTenantPrefix(a.ID), EndKey: keys.MakeTenantPrefix(b.ID + 1)},
	}})
	if !errors.As(err, &tae) {
		t.Fatalf("cross-tenant scan = %v", err)
	}
	// Write into B's keyspace.
	_, err = asender.Send(ctx, &kvpb.BatchRequest{Tenant: a.ID, Requests: []kvpb.Request{
		{Method: kvpb.Put, Key: secret, Value: []byte("overwrite")},
	}})
	if !errors.As(err, &tae) {
		t.Fatalf("cross-tenant put = %v", err)
	}
}
