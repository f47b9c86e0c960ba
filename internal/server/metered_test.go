package server

import (
	"context"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/txn"
	"crdbserverless/internal/workload"
)

// A pushed-down aggregation returns a partial row per group instead of the
// rows it read, but the tenant's bill prices reads on what the KV node read:
// TPC-H Q1 pushed down and on the row path meter identical batch features,
// and so the same estimated KV CPU against the tenant's quota. The table is
// split so Q1's scan spans four ranges: every range's reads are billed, and
// the row path bills exactly the bytes it returned.
func TestPushdownBillsBytesRead(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	ds := kvserver.NewDistSender(env.cluster, kvserver.Identity{Tenant: 2})
	var returned int64
	var ranges int
	var scanned keys.Span // the span of the last scan sent
	counted := senderFunc(func(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
		resp, err := ds.Send(ctx, ba)
		if err == nil {
			returned += resp.ReadBytes()
			ranges = max(ranges, resp.Ranges)
		}
		for _, r := range ba.Requests {
			if r.Method == kvpb.Scan {
				scanned = r.Span()
			}
		}
		return resp, err
	})
	session := func(cfg sql.ExecutorConfig) (*MeteredSender, *sql.Session) {
		meter := NewMeteredSender(counted)
		coord := txn.NewCoordinator(meter, env.cluster.Clock(), 2)
		return meter, sql.NewSession(sql.NewExecutor(sql.NewCatalog(coord, 2), coord, cfg), "app")
	}
	_, loader := session(sql.ExecutorConfig{})
	gen := workload.NewTPCH(600, 7)
	if err := gen.Setup(ctx, loader); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Q1(ctx, loader); err != nil {
		t.Fatal(err)
	}
	table, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{{
		Method: kvpb.Scan, Key: scanned.Key, EndKey: scanned.EndKey}}})
	if err != nil {
		t.Fatal(err)
	}
	stored := table.Responses[0].Rows
	for _, q := range []int{1, 2, 3} {
		if err := env.cluster.SplitAt(stored[q*len(stored)/4].Key.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	q1 := func(cfg sql.ExecutorConfig) tenantcost.BatchFeatures {
		meter, s := session(cfg)
		// The first run also reads the catalog; the second is Q1 alone.
		if _, err := gen.Q1(ctx, s); err != nil {
			t.Fatal(err)
		}
		before := meter.Features()
		returned, ranges = 0, 0
		if _, err := gen.Q1(ctx, s); err != nil {
			t.Fatal(err)
		}
		f := meter.Features()
		return tenantcost.BatchFeatures{
			ReadBatches: f.ReadBatches - before.ReadBatches, ReadRequests: f.ReadRequests - before.ReadRequests,
			ReadBytes: f.ReadBytes - before.ReadBytes, WriteBatches: f.WriteBatches - before.WriteBatches,
			WriteRequests: f.WriteRequests - before.WriteRequests, WriteBytes: f.WriteBytes - before.WriteBytes,
		}
	}
	pushed := q1(sql.ExecutorConfig{})
	pushedReturned := returned
	rows := q1(sql.ExecutorConfig{NoPushdown: true})
	if ranges < 4 {
		t.Fatalf("Q1's scan visited %d ranges, want the 4 the table was split into", ranges)
	}
	if pushedReturned*10 > returned {
		t.Fatalf("Q1 pushed returned %d bytes, on the row path %d: not pushed down", pushedReturned, returned)
	}
	if rows.ReadBytes != returned {
		t.Fatalf("Q1 on the row path bills %d bytes read, returned %d", rows.ReadBytes, returned)
	}
	if pushed != rows || pushed.ReadBytes == 0 {
		t.Fatalf("Q1 pushed meters %+v, on the row path %+v", pushed, rows)
	}
	m := tenantcost.DefaultModel()
	if p, r := m.EstimateKV(pushed), m.EstimateKV(rows); p != r {
		t.Fatalf("Q1 pushed is estimated at %v, on the row path at %v", p, r)
	}
}

type senderFunc func(context.Context, *kvpb.BatchRequest) (*kvpb.BatchResponse, error)

func (f senderFunc) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	return f(ctx, ba)
}
