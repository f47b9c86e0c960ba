package kvserver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// newTestCluster builds an n-node cluster with tiny costs so tests run fast.
func newTestCluster(t testing.TB, n int, opts ...func(*NodeConfig)) *Cluster {
	t.Helper()
	cheap := CostConfig{
		ReadBatchOverhead:  time.Nanosecond,
		WriteBatchOverhead: time.Nanosecond,
		ReadRequestCost:    time.Nanosecond,
		WriteRequestCost:   time.Nanosecond,
	}
	var nodes []*Node
	for i := 1; i <= n; i++ {
		cfg := NodeConfig{ID: NodeID(i), VCPUs: 2, Cost: cheap}
		for _, o := range opts {
			o(&cfg)
		}
		cfg.ID = NodeID(i)
		nodes = append(nodes, NewNode(cfg))
	}
	c, err := NewCluster(ClusterConfig{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newConfiguredCluster builds a cluster with an explicit ClusterConfig
// (unlike newTestCluster, which pins the defaults). A nil clock means real
// time.
func newConfiguredCluster(t testing.TB, n int, cfg ClusterConfig, clock timeutil.Clock) *Cluster {
	t.Helper()
	cheap := CostConfig{
		ReadBatchOverhead:  time.Nanosecond,
		WriteBatchOverhead: time.Nanosecond,
		ReadRequestCost:    time.Nanosecond,
		WriteRequestCost:   time.Nanosecond,
	}
	var nodes []*Node
	for i := 1; i <= n; i++ {
		nodes = append(nodes, NewNode(NodeConfig{ID: NodeID(i), VCPUs: 2, Cost: cheap, Clock: clock}))
	}
	cfg.Clock = clock
	c, err := NewCluster(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func tenantKey(tid keys.TenantID, s string) keys.Key {
	return append(keys.MakeTenantPrefix(tid), []byte(s)...)
}

func putReq(k keys.Key, v string) kvpb.Request {
	return kvpb.Request{Method: kvpb.Put, Key: k, Value: []byte(v)}
}

func getReq(k keys.Key) kvpb.Request {
	return kvpb.Request{Method: kvpb.Get, Key: k}
}

func TestClusterPutGet(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()

	k := tenantKey(2, "hello")
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "world")}}); err != nil {
		t.Fatal(err)
	}
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(k)}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Responses[0].Exists || string(resp.Responses[0].Value) != "world" {
		t.Fatalf("get = %+v", resp.Responses[0])
	}
	// Missing key.
	resp, err = ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(tenantKey(2, "missing"))}})
	if err != nil || resp.Responses[0].Exists {
		t.Fatalf("missing get = %+v err=%v", resp.Responses[0], err)
	}
}

func TestClusterWritesReplicatedToAllReplicas(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	k := tenantKey(2, "replicated")
	if _, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
		t.Fatal(err)
	}
	desc, err := c.LookupRange(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.Replicas) != 3 {
		t.Fatalf("replicas = %v", desc.Replicas)
	}
	// Every replica's engine holds the raw version.
	for _, nid := range desc.Replicas {
		n, _ := c.Node(nid)
		it := n.Engine().NewIter(nil, nil)
		found := false
		for ; it.Valid(); it.Next() {
			found = true
			break
		}
		if !found {
			t.Fatalf("node %d engine empty; replication failed", nid)
		}
	}
}

func TestClusterScanAndDelete(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		k := tenantKey(2, fmt.Sprintf("k%02d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	span := keys.MakeTenantSpan(2)
	scan := kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{scan}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses[0].Rows) != 10 {
		t.Fatalf("scan rows = %d", len(resp.Responses[0].Rows))
	}
	// Delete a key and rescan.
	del := kvpb.Request{Method: kvpb.Delete, Key: tenantKey(2, "k05")}
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{del}}); err != nil {
		t.Fatal(err)
	}
	resp, err = ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{scan}})
	if err != nil || len(resp.Responses[0].Rows) != 9 {
		t.Fatalf("post-delete scan rows = %d err=%v", len(resp.Responses[0].Rows), err)
	}
}

func TestClusterScanMaxKeysResume(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		k := tenantKey(2, fmt.Sprintf("k%02d", i))
		ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}})
	}
	span := keys.MakeTenantSpan(2)
	var rows int
	req := kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey, MaxKeys: 3}
	for i := 0; i < 10; i++ {
		resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{req}})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Responses[0]
		rows += len(r.Rows)
		if r.ResumeSpan == nil {
			break
		}
		req.Key = r.ResumeSpan.Key
		req.EndKey = r.ResumeSpan.EndKey
	}
	if rows != 10 {
		t.Fatalf("paginated scan returned %d rows, want 10", rows)
	}
}

func TestClusterDeleteRange(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(tenantKey(2, fmt.Sprintf("k%d", i)), "v")}})
	}
	dr := kvpb.Request{Method: kvpb.DeleteRange, Key: tenantKey(2, "k2"), EndKey: tenantKey(2, "k5")}
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{dr}}); err != nil {
		t.Fatal(err)
	}
	span := keys.MakeTenantSpan(2)
	resp, _ := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	var got []string
	for _, r := range resp.Responses[0].Rows {
		got = append(got, string(r.Key[len(keys.MakeTenantPrefix(2)):]))
	}
	want := []string{"k0", "k1", "k5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after delete range: %v, want %v", got, want)
	}
}

func TestSplitAtAndMultiRangeScan(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(tenantKey(2, fmt.Sprintf("k%02d", i)), "v")}})
	}
	if err := c.SplitAt(tenantKey(2, "k05")); err != nil {
		t.Fatal(err)
	}
	// The directory now has one more range; spans still partition the keyspace.
	descs := c.Descriptors()
	for i := 1; i < len(descs); i++ {
		if !descs[i-1].Span.EndKey.Equal(descs[i].Span.Key) {
			t.Fatalf("gap between %s and %s", descs[i-1], descs[i])
		}
	}
	// A scan across the split boundary still returns everything, through a
	// DistSender whose cache is stale.
	span := keys.MakeTenantSpan(2)
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses[0].Rows) != 10 {
		t.Fatalf("cross-split scan rows = %d, want 10", len(resp.Responses[0].Rows))
	}
	// Writes on both sides of the split work.
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		putReq(tenantKey(2, "k02x"), "left"), putReq(tenantKey(2, "k07x"), "right")}}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAtExistingBoundaryNoop(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	n := len(c.Descriptors())
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Descriptors()); got != n {
		t.Fatalf("repeat split changed range count %d -> %d", n, got)
	}
}

func TestSizeSplitTriggers(t *testing.T) {
	cheap := CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	n1 := NewNode(NodeConfig{ID: 1, VCPUs: 2, Cost: cheap})
	c, err := NewCluster(ClusterConfig{}, []*Node{n1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.splitSize = 4096
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	before := len(c.Descriptors())
	payload := make([]byte, 256)
	for i := 0; i < 64; i++ {
		k := tenantKey(2, fmt.Sprintf("key-%04d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			{Method: kvpb.Put, Key: k, Value: payload}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Descriptors()); got <= before {
		t.Fatalf("no size-based split: %d ranges", got)
	}
	// All data still readable.
	span := keys.MakeTenantSpan(2)
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	if err != nil || len(resp.Responses[0].Rows) != 64 {
		t.Fatalf("post-split scan = %d rows, err=%v", len(resp.Responses[0].Rows), err)
	}
}

func TestAuthorizerEnforced(t *testing.T) {
	c := newTestCluster(t, 3)
	c.SetAuthorizer(authFunc(func(id Identity, ba *kvpb.BatchRequest) error {
		for _, r := range ba.Requests {
			if !keys.MakeTenantSpan(id.Tenant).ContainsKey(r.Key) {
				return &kvpb.TenantAuthError{Authenticated: id.Tenant, Requested: ba.Tenant, Key: r.Key}
			}
		}
		return nil
	}))
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	// Own keyspace: fine.
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		putReq(tenantKey(2, "mine"), "v")}}); err != nil {
		t.Fatal(err)
	}
	// Another tenant's keyspace: rejected.
	_, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 3, Requests: []kvpb.Request{
		putReq(tenantKey(3, "theirs"), "v")}})
	var tae *kvpb.TenantAuthError
	if !errors.As(err, &tae) {
		t.Fatalf("cross-tenant write = %v", err)
	}
}

type authFunc func(Identity, *kvpb.BatchRequest) error

func (f authFunc) Authorize(id Identity, ba *kvpb.BatchRequest) error { return f(id, ba) }

func TestFollowerReadServedByNonLeaseholder(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	k := tenantKey(2, "k")
	ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}})

	desc, _ := c.LookupRange(k)
	lh, ok := func() (NodeID, bool) {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.mu.ranges[desc.RangeID].group.Load().Leaseholder()
	}()
	if !ok {
		t.Fatal("no leaseholder")
	}
	// Pick a replica that is not the leaseholder and read directly from it.
	var follower NodeID
	for _, r := range desc.Replicas {
		if r != lh {
			follower = r
			break
		}
	}
	ba := &kvpb.BatchRequest{Tenant: 2, FollowerRead: true, Timestamp: c.Clock().Now(),
		Requests: []kvpb.Request{getReq(k)}}
	resp, err := c.Batch(ctx, follower, Identity{Tenant: 2}, ba)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Responses[0].Exists || string(resp.Responses[0].Value) != "v" {
		t.Fatalf("follower read = %+v", resp.Responses[0])
	}
	// The same read without the follower flag redirects.
	ba2 := &kvpb.BatchRequest{Tenant: 2, Timestamp: c.Clock().Now(), Requests: []kvpb.Request{getReq(k)}}
	_, err = c.Batch(ctx, follower, Identity{Tenant: 2}, ba2)
	var nle *kvpb.NotLeaseholderError
	if !errors.As(err, &nle) || nle.Leaseholder != lh {
		t.Fatalf("non-follower read from follower = %v", err)
	}
}

func TestDistSenderChasesLeaseholder(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	k := tenantKey(2, "k")
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v1")}}); err != nil {
		t.Fatal(err)
	}
	// Move the lease away; the DistSender's hint is now stale.
	desc, _ := c.LookupRange(k)
	c.mu.RLock()
	rs := c.mu.ranges[desc.RangeID]
	c.mu.RUnlock()
	lh, _ := rs.group.Load().Leaseholder()
	var other NodeID
	for _, r := range desc.Replicas {
		if r != lh {
			other = r
			break
		}
	}
	if err := rs.group.Load().TransferLease(lh, other); err != nil {
		t.Fatal(err)
	}
	_ = rs.group.Load().CatchUp(other)
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v2")}}); err != nil {
		t.Fatalf("send after lease move: %v", err)
	}
	resp, _ := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(k)}})
	if string(resp.Responses[0].Value) != "v2" {
		t.Fatalf("read after lease move = %q", resp.Responses[0].Value)
	}
}

func TestWriteTooOldRetriedByServer(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	k := tenantKey(2, "k")
	// Write at a high explicit timestamp.
	future := c.Clock().Now()
	future.WallTime += int64(time.Hour)
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Timestamp: future,
		Requests: []kvpb.Request{putReq(k, "future")}}); err != nil {
		t.Fatal(err)
	}
	// A current-time write conflicts (WriteTooOld) and surfaces to the
	// caller as a retriable error.
	_, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "now")}})
	var wto *kvpb.WriteTooOldError
	if !errors.As(err, &wto) {
		t.Fatalf("conflicting write = %v", err)
	}
	if !kvpb.IsRetriable(err) {
		t.Fatal("WriteTooOld should be retriable")
	}
}

func TestLeaseCountsAndRebalance(t *testing.T) {
	c := newTestCluster(t, 3)
	// Create several ranges via tenant boundary splits.
	for tid := keys.TenantID(2); tid < 12; tid++ {
		if err := c.SplitAt(keys.MakeTenantPrefix(tid)); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick() // acquire leases + rebalance
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	counts := c.LeaseCounts()
	var total, max, min int
	min = 1 << 30
	for _, n := range []NodeID{1, 2, 3} {
		cnt := counts[n]
		total += cnt
		if cnt > max {
			max = cnt
		}
		if cnt < min {
			min = cnt
		}
	}
	if total != len(c.Descriptors()) {
		t.Fatalf("total leases %d != ranges %d", total, len(c.Descriptors()))
	}
	if max-min > 2 {
		t.Fatalf("leases unbalanced: %v", counts)
	}
}

func TestBatchEmptyRequests(t *testing.T) {
	c := newTestCluster(t, 1)
	resp, err := c.Batch(context.Background(), 1, Identity{Tenant: 2}, &kvpb.BatchRequest{Tenant: 2})
	if err != nil || len(resp.Responses) != 0 {
		t.Fatalf("empty batch = %+v, %v", resp, err)
	}
}

func TestBatchUnknownNode(t *testing.T) {
	c := newTestCluster(t, 1)
	_, err := c.Batch(context.Background(), 99, Identity{}, &kvpb.BatchRequest{})
	if err == nil {
		t.Fatal("unknown node should error")
	}
}

func TestNodeCPUAccounting(t *testing.T) {
	c := newTestCluster(t, 1, func(cfg *NodeConfig) {
		cfg.Cost = CostConfig{ReadBatchOverhead: 100 * time.Microsecond}
	})
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	n, _ := c.Node(1)
	before := n.CPUBusy()
	for i := 0; i < 10; i++ {
		ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(tenantKey(2, "x"))}})
	}
	if n.CPUBusy()-before < 900*time.Microsecond {
		t.Fatalf("cpu busy delta = %v, want >= ~1ms", n.CPUBusy()-before)
	}
	if n.BatchCount() < 10 {
		t.Fatalf("batch count = %d", n.BatchCount())
	}
}

func TestConcurrentWritersDistinctKeys(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ds := NewDistSender(c, Identity{Tenant: 2})
			for i := 0; i < 25; i++ {
				k := tenantKey(2, fmt.Sprintf("g%d-k%d", g, i))
				if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2,
					Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	ds := NewDistSender(c, Identity{Tenant: 2})
	span := keys.MakeTenantSpan(2)
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	if err != nil || len(resp.Responses[0].Rows) != 200 {
		t.Fatalf("scan rows = %d err=%v", len(resp.Responses[0].Rows), err)
	}
}

func TestCostConfigShapes(t *testing.T) {
	cfg := DefaultCostConfig()
	readBatch := &kvpb.BatchRequest{Requests: []kvpb.Request{getReq(keys.Key("k"))}}
	writeBatch := &kvpb.BatchRequest{Requests: []kvpb.Request{putReq(keys.Key("k"), "v")}}
	if cfg.BatchCost(writeBatch, nil, 0, false) <= cfg.BatchCost(readBatch, nil, 0, false) {
		t.Fatal("writes should cost more than reads")
	}
	// Amortization: per-batch cost falls at high rates.
	low := cfg.BatchCost(readBatch, nil, 0, false)
	high := cfg.BatchCost(readBatch, nil, 1e6, false)
	if high >= low {
		t.Fatalf("amortization missing: %v >= %v", high, low)
	}
	// Remote responses cost more (marshaling).
	resp := &kvpb.BatchResponse{Responses: []kvpb.Response{{Rows: []kvpb.KeyValue{
		{Key: keys.Key("k"), Value: make([]byte, 10000)}}}}}
	local := cfg.BatchCost(readBatch, resp, 0, false)
	remote := cfg.BatchCost(readBatch, resp, 0, true)
	if remote <= local {
		t.Fatal("remote marshaling cost missing")
	}
}

func TestMetaDirectoryInvariants(t *testing.T) {
	var dir metaDirectory
	d1 := &RangeDescriptor{RangeID: 1, Span: keys.Span{Key: keys.Key("a"), EndKey: keys.Key("m")}}
	d2 := &RangeDescriptor{RangeID: 2, Span: keys.Span{Key: keys.Key("m"), EndKey: keys.Key("z")}}
	if err := dir.insert(d1); err != nil {
		t.Fatal(err)
	}
	if err := dir.insert(d2); err != nil {
		t.Fatal(err)
	}
	// Overlap rejected.
	if err := dir.insert(&RangeDescriptor{RangeID: 3, Span: keys.Span{Key: keys.Key("l"), EndKey: keys.Key("n")}}); err == nil {
		t.Fatal("overlapping insert allowed")
	}
	got, err := dir.lookup(keys.Key("hello"))
	if err != nil || got.RangeID != 1 {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if _, err := dir.lookup(keys.Key("zz")); err == nil {
		t.Fatal("out-of-bounds lookup should fail")
	}
	// Replace keeps ordering.
	l := &RangeDescriptor{RangeID: 1, Span: keys.Span{Key: keys.Key("a"), EndKey: keys.Key("g")}}
	r := &RangeDescriptor{RangeID: 4, Span: keys.Span{Key: keys.Key("g"), EndKey: keys.Key("m")}}
	if err := dir.replace(1, l, r); err != nil {
		t.Fatal(err)
	}
	if err := dir.replace(99); err == nil {
		t.Fatal("replacing unknown range should fail")
	}
	all := dir.all()
	if len(all) != 3 || all[0].RangeID != 1 || all[1].RangeID != 4 || all[2].RangeID != 2 {
		t.Fatalf("directory after replace: %v", all)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	c := command{Mutations: []mutation{
		{Kind: mutPut, Key: keys.Key("k"), Value: []byte("v"), TxnID: 7},
		{Kind: mutResolve, Key: keys.Key("k"), TxnID: 7, Commit: true},
	}}
	got, err := decodeCommand(encodeCommand(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Mutations) != 2 || string(got.Mutations[0].Value) != "v" || !got.Mutations[1].Commit {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeCommand([]byte("garbage")); err == nil {
		t.Fatal("garbage command should fail to decode")
	}
}

func TestDistSenderRedirectEventOnSpan(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	tr := trace.New(trace.Options{Clock: timeutil.NewRealClock(), Seed: 1})
	root := tr.StartRoot("test")
	ctx := trace.ContextWithSpan(context.Background(), root)
	k := tenantKey(2, "k")
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v1")}}); err != nil {
		t.Fatal(err)
	}
	// Move the lease so the DistSender's leaseholder hint goes stale.
	desc, _ := c.LookupRange(k)
	c.mu.RLock()
	rs := c.mu.ranges[desc.RangeID]
	c.mu.RUnlock()
	lh, _ := rs.group.Load().Leaseholder()
	var other NodeID
	for _, r := range desc.Replicas {
		if r != lh {
			other = r
			break
		}
	}
	if err := rs.group.Load().TransferLease(lh, other); err != nil {
		t.Fatal(err)
	}
	_ = rs.group.Load().CatchUp(other)
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v2")}}); err != nil {
		t.Fatalf("send after lease move: %v", err)
	}
	root.Finish()

	// The redirected send's dist.send span must carry a structured
	// redirect event naming the stale target and the leaseholder hint.
	var sawRedirect bool
	for _, sp := range root.Children() {
		if sp.Op() != "dist.send" {
			continue
		}
		for _, ev := range sp.Events() {
			if strings.Contains(ev.Msg, "redirect: not leaseholder") {
				sawRedirect = true
			}
		}
	}
	if !sawRedirect {
		t.Fatalf("no redirect event recorded on any dist.send span")
	}
}
