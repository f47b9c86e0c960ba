package sql

import (
	"context"
	"fmt"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/region"
	"crdbserverless/internal/txn"
)

// The system database (§3.2.5). Every tenant carries its own copy: the
// descriptor table holding its schema, and the sql_instances registry that
// makes SQL nodes discoverable to each other for DistSQL routing. The table
// localities configured here are the multi-region cold-start optimization:
// system.descriptor is GLOBAL (consistent local reads everywhere) and
// system.sql_instances is REGIONAL BY ROW (a starting node's registration
// write stays in its own region).

// SystemTableName constants.
const (
	SystemDescriptorTable   = "system_descriptor"
	SystemSQLInstancesTable = "system_sql_instances"
)

// SystemTableLocalities describes how the system database is configured for
// a tenant's region set. RegionAware enables the optimized localities of
// §3.2.5; with it disabled, every system table is pinned to Home (the
// unoptimized baseline of Fig 10b).
type SystemTableLocalities struct {
	RegionAware bool
	Home        region.Region
}

// Placement returns the lease placement for a system table under this
// configuration.
func (l SystemTableLocalities) Placement(table string) region.LeasePlacement {
	if !l.RegionAware {
		return region.LeasePlacement{Locality: region.LocalityRegionalByTable, Home: l.Home}
	}
	switch table {
	case SystemDescriptorTable:
		return region.LeasePlacement{Locality: region.LocalityGlobal}
	case SystemSQLInstancesTable:
		return region.LeasePlacement{Locality: region.LocalityRegionalByRow}
	default:
		return region.LeasePlacement{Locality: region.LocalityRegionalByTable, Home: l.Home}
	}
}

// SQLInstance is one row of system.sql_instances.
type SQLInstance struct {
	ID     int64
	Region region.Region
	Addr   string
}

// instanceKey returns the sql_instances row key. The region is the key's
// leading component, mirroring REGIONAL BY ROW partitioning.
func instanceKey(tenant keys.TenantID, r region.Region, id int64) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, SQLInstancesTableID, keys.PrimaryIndexID)
	k = keys.EncodeString(k, string(r))
	return keys.EncodeInt64(k, id)
}

// RegisterInstance writes a SQL node's row into system.sql_instances — one
// of the blocking startup writes whose latency the REGIONAL BY ROW locality
// keeps local (§3.2.5).
func RegisterInstance(ctx context.Context, coord *txn.Coordinator, tenant keys.TenantID, inst SQLInstance) error {
	return coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		return t.Put(ctx, instanceKey(tenant, inst.Region, inst.ID),
			[]byte(fmt.Sprintf("%s|%s", inst.Region, inst.Addr)))
	})
}

// UnregisterInstance removes a SQL node's registration at shutdown.
func UnregisterInstance(ctx context.Context, coord *txn.Coordinator, tenant keys.TenantID, r region.Region, id int64) error {
	return coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		return t.Delete(ctx, instanceKey(tenant, r, id))
	})
}

// ListInstances returns the tenant's live SQL instances, across all regions.
//
//lint:allow deadsurface roadmap: "Run Fig 10 on the assembly" (3) counts the system-DB accesses of a regional connect
func ListInstances(ctx context.Context, coord *txn.Coordinator, tenant keys.TenantID) ([]SQLInstance, error) {
	span := keys.MakeTableIndexSpan(tenant, SQLInstancesTableID, keys.PrimaryIndexID)
	var out []SQLInstance
	err := coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		out = out[:0]
		rows, err := t.Scan(ctx, span, 0)
		if err != nil {
			return err
		}
		prefix := keys.MakeTableIndexPrefix(tenant, SQLInstancesTableID, keys.PrimaryIndexID)
		for _, kv := range rows {
			rest := kv.Key[len(prefix):]
			rest, regionName, err := keys.DecodeString(rest)
			if err != nil {
				return err
			}
			_, id, err := keys.DecodeInt64(rest)
			if err != nil {
				return err
			}
			var addr string
			// Value format: region|addr.
			for i := 0; i < len(kv.Value); i++ {
				if kv.Value[i] == '|' {
					addr = string(kv.Value[i+1:])
					break
				}
			}
			out = append(out, SQLInstance{ID: id, Region: region.Region(regionName), Addr: addr})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
