// Package core implements cluster virtualization, the paper's primary
// contribution (§3.2): each tenant ("virtual cluster") is a segment of the
// shared KV keyspace plus its own SQL layer instances, with a security
// boundary at the SQL/KV interface that confines every authenticated
// identity to its own segment.
//
// The package provides:
//   - Authorizer: the KV-side check that a request's identity matches the
//     keyspace it addresses (§3.2.3).
//   - Registry: tenant lifecycle — create and drop (§3.2.4, managed
//     through the system tenant) — including carving each tenant's keyspace
//     onto dedicated range boundaries so no two tenants ever share a range
//     (§3.2.1). Suspension is not a record state: a tenant is scaled to
//     zero in a region when the orchestrator runs no pods for it there.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/region"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/txn"
)

// Authorizer enforces the SQL/KV security boundary: a request authenticated
// as tenant T may only address keys inside T's segment. The system tenant is
// exempt (it is the low-level control interface of §3.2.4 and is reachable
// only through operator credentials).
type Authorizer struct{}

// Authorize implements kvserver.Authorizer.
func (Authorizer) Authorize(id kvserver.Identity, ba *kvpb.BatchRequest) error {
	if id.Tenant.IsSystem() {
		return nil
	}
	if !id.Tenant.IsValid() {
		return &kvpb.TenantAuthError{Authenticated: id.Tenant, Requested: ba.Tenant}
	}
	if ba.Tenant != id.Tenant {
		return &kvpb.TenantAuthError{Authenticated: id.Tenant, Requested: ba.Tenant}
	}
	for _, r := range ba.Requests {
		if outside, ok := keys.TenantSpanContains(id.Tenant, r.Span()); !ok {
			return &kvpb.TenantAuthError{Authenticated: id.Tenant, Requested: ba.Tenant, Key: outside}
		}
	}
	return nil
}

// Tenant is one virtual cluster's control-plane record.
type Tenant struct {
	ID   keys.TenantID
	Name string
	// Dropped marks a deleted tenant whose keyspace is reclaimable. A live
	// tenant is suspended in a region exactly when it runs no pods there
	// (the orchestrator's concern, not the record's).
	Dropped bool
	// Regions the tenant selected (§4.2.5). The system database presents
	// these as the only regions in the cluster.
	Regions []region.Region
	// Password authenticates SQL connections for this tenant.
	Password string
	// QuotaVCPUs is the CPU quota enforced by the distributed token bucket
	// (0 = unlimited).
	QuotaVCPUs float64
	// RegionAware selects the optimized multi-region system database
	// localities (§3.2.5).
	RegionAware bool
}

// TenantOptions configure CreateTenant.
type TenantOptions struct {
	Regions     []region.Region
	Password    string
	QuotaVCPUs  float64
	RegionAware bool
}

// Registry manages tenants. Tenant records persist in the system tenant's
// keyspace; mutations run through the system tenant, mirroring §3.2.4.
type Registry struct {
	cluster *kvserver.Cluster
	buckets *tenantcost.BucketServer
	sysTxn  *txn.Coordinator

	mu struct {
		sync.Mutex
		byID   map[keys.TenantID]*Tenant
		byName map[string]*Tenant
		nextID keys.TenantID
	}
}

// tenantRecordTableID is the system-tenant table holding tenant records.
const tenantRecordTableID keys.TableID = 50

func tenantRecordKey(name string) keys.Key {
	k := keys.MakeTableIndexPrefix(keys.SystemTenantID, tenantRecordTableID, keys.PrimaryIndexID)
	return keys.EncodeString(k, name)
}

// NewRegistry returns a Registry over the cluster. It installs the
// authorization boundary on the cluster and loads any persisted tenants.
func NewRegistry(cluster *kvserver.Cluster, buckets *tenantcost.BucketServer) (*Registry, error) {
	r := &Registry{cluster: cluster, buckets: buckets}
	r.mu.byID = make(map[keys.TenantID]*Tenant)
	r.mu.byName = make(map[string]*Tenant)
	r.mu.nextID = keys.SystemTenantID + 1
	cluster.SetAuthorizer(Authorizer{})

	sysSender := kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: keys.SystemTenantID})
	r.sysTxn = txn.NewCoordinator(sysSender, cluster.Clock(), keys.SystemTenantID)

	// Carve the system tenant's own boundary.
	if err := cluster.SplitAt(keys.MakeTenantPrefix(keys.SystemTenantID)); err != nil {
		return nil, err
	}
	if err := r.load(context.Background()); err != nil {
		return nil, err
	}
	return r, nil
}

// load restores persisted tenant records.
func (r *Registry) load(ctx context.Context) error {
	prefix := keys.MakeTableIndexPrefix(keys.SystemTenantID, tenantRecordTableID, keys.PrimaryIndexID)
	span := keys.Span{Key: prefix, EndKey: prefix.PrefixEnd()}
	return r.sysTxn.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		rows, err := t.Scan(ctx, span, 0)
		if err != nil {
			return err
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, kv := range rows {
			t, err := decodeTenant(kv.Value)
			if err != nil {
				return err
			}
			r.mu.byID[t.ID] = t
			r.mu.byName[t.Name] = t
			if t.ID >= r.mu.nextID {
				r.mu.nextID = t.ID + 1
			}
		}
		return nil
	})
}

// Errors returned by Registry methods.
var (
	ErrTenantExists   = errors.New("core: tenant already exists")
	ErrTenantNotFound = errors.New("core: tenant not found")
	ErrTenantDropped  = errors.New("core: tenant is dropped")
)

// CreateTenant provisions a new virtual cluster: allocates its ID, splits
// its keyspace onto dedicated ranges, persists the record, and configures
// its quota.
func (r *Registry) CreateTenant(ctx context.Context, name string, opts TenantOptions) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("core: tenant name required")
	}
	r.mu.Lock()
	if _, dup := r.mu.byName[name]; dup {
		r.mu.Unlock()
		return nil, ErrTenantExists
	}
	id := r.mu.nextID
	r.mu.nextID++
	t := &Tenant{
		ID:          id,
		Name:        name,
		Regions:     append([]region.Region(nil), opts.Regions...),
		Password:    opts.Password,
		QuotaVCPUs:  opts.QuotaVCPUs,
		RegionAware: opts.RegionAware,
	}
	r.mu.byID[id] = t
	r.mu.byName[name] = t
	r.mu.Unlock()

	// Carve the tenant's keyspace onto its own ranges: no two tenants may
	// share a range (§3.2.1).
	span := keys.MakeTenantSpan(id)
	if err := r.cluster.SplitAt(span.Key); err != nil {
		return nil, err
	}
	if err := r.cluster.SplitAt(span.EndKey); err != nil {
		return nil, err
	}
	if err := r.persist(ctx, t); err != nil {
		return nil, err
	}
	if opts.QuotaVCPUs > 0 {
		r.buckets.SetQuota(id, opts.QuotaVCPUs)
	}
	return t.clone(), nil
}

func (r *Registry) persist(ctx context.Context, t *Tenant) error {
	rec := encodeTenant(t)
	return r.sysTxn.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		return tx.Put(ctx, tenantRecordKey(t.Name), rec)
	})
}

// The record's state byte. 1 meant suspended; no record holds it any more,
// since a region's pods answer that.
const (
	stateLive    = 0
	stateDropped = 2
)

// Encoded tenant record:
//
//	ID           uvarint
//	Name         string
//	State        1 byte, stateLive or stateDropped
//	Regions      count, then each region as a string
//	Password     string
//	QuotaVCPUs   IEEE 754 bits, 8 bytes big-endian
//	RegionAware  1 byte, 0 or 1
func encodeTenant(t *Tenant) []byte {
	b := binary.AppendUvarint(nil, uint64(t.ID))
	b = binenc.AppendString(b, t.Name)
	state := byte(stateLive)
	if t.Dropped {
		state = stateDropped
	}
	b = append(b, state)
	b = binary.AppendUvarint(b, uint64(len(t.Regions)))
	for _, reg := range t.Regions {
		b = binenc.AppendString(b, string(reg))
	}
	b = binenc.AppendString(b, t.Password)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(t.QuotaVCPUs))
	return binenc.AppendBool(b, t.RegionAware)
}

// decodeTenant parses a tenant record; no regions decode as nil, as clone
// leaves them.
func decodeTenant(b []byte) (*Tenant, error) {
	r := binenc.NewReader(b)
	t := &Tenant{ID: keys.TenantID(r.Uvarint()), Name: r.Str()}
	switch r.Byte() {
	case stateLive:
	case stateDropped:
		t.Dropped = true
	default:
		r.Fail()
	}
	// A region is at least its length byte.
	if n := r.Count(1); n > 0 {
		t.Regions = make([]region.Region, n)
		for i := range t.Regions {
			t.Regions[i] = region.Region(r.Str())
		}
	}
	t.Password = r.Str()
	t.QuotaVCPUs = math.Float64frombits(r.Uint64())
	t.RegionAware = r.Bool()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decoding tenant record: %w", err)
	}
	return t, nil
}

// GetByName returns a tenant record.
func (r *Registry) GetByName(name string) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.mu.byName[name]
	if !ok {
		return nil, ErrTenantNotFound
	}
	return t.clone(), nil
}

// List returns all tenants sorted by name.
func (r *Registry) List() []*Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Tenant, 0, len(r.mu.byID))
	for _, t := range r.mu.byID {
		out = append(out, t.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Drop deletes a tenant: the record is tombstoned and the tenant's keyspace
// is deleted through the system tenant.
//
//lint:allow deadsurface roadmap: "One read path, one engine mode" step 5 clears, collects and merges a dropped tenant's span
func (r *Registry) Drop(ctx context.Context, name string) error {
	r.mu.Lock()
	t, ok := r.mu.byName[name]
	if !ok {
		r.mu.Unlock()
		return ErrTenantNotFound
	}
	t.Dropped = true
	id := t.ID
	snapshot := t.clone()
	r.mu.Unlock()
	if err := r.persist(ctx, snapshot); err != nil {
		return err
	}
	// Reclaim the keyspace.
	span := keys.MakeTenantSpan(id)
	return r.sysTxn.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		_, err := tx.Send(ctx, kvpb.Request{
			Method: kvpb.DeleteRange, Key: span.Key, EndKey: span.EndKey,
		})
		return err
	})
}

func (t *Tenant) clone() *Tenant {
	out := *t
	out.Regions = append([]region.Region(nil), t.Regions...)
	return &out
}
