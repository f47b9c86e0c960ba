package kvserver

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
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

// TestNonLeaseholderReadRedirects: a replica that does not hold the lease
// answers a read with a redirect naming the leaseholder.
func TestNonLeaseholderReadRedirects(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	k := tenantKey(2, "k")
	ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}})

	desc, _ := c.LookupRange(k)
	rs, err := c.rangeFor(k)
	if err != nil {
		t.Fatal(err)
	}
	lh, ok := rs.group.Leaseholder()
	if !ok {
		t.Fatal("no leaseholder")
	}
	var follower NodeID
	for _, r := range desc.Replicas {
		if r != lh {
			follower = r
			break
		}
	}
	ba := &kvpb.BatchRequest{Tenant: 2, Timestamp: c.Clock().Now(), Requests: []kvpb.Request{getReq(k)}}
	_, err = c.Batch(ctx, follower, Identity{Tenant: 2}, ba)
	var nle *kvpb.NotLeaseholderError
	if !errors.As(err, &nle) || nle.Leaseholder != lh {
		t.Fatalf("read from a follower = %v", err)
	}
}

// Regression: Batch checks the lease before admission, which can queue, and
// evaluation then read the node's engine without checking it again. A holder
// that failed liveness in that window lost the lease to a replica that
// committed a write it never applied, and the queued read returned the old
// value. Evaluation now re-checks the lease under the range latch.
func TestOldLeaseholderReadRechecksLease(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	k := tenantKey(2, "k")
	ds := NewDistSender(c, Identity{Tenant: 2})
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "old")}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.rangeFor(k)
	if err != nil {
		t.Fatal(err)
	}
	old, ok := rs.group.Leaseholder()
	if !ok {
		t.Fatal("no leaseholder")
	}
	var other NodeID
	for _, r := range rs.desc.Replicas {
		if r != old {
			other = r
			break
		}
	}
	// The holder fails liveness; another replica takes the lease and
	// commits a write the old holder does not apply.
	oldNode, _ := c.Node(old)
	oldNode.SetCordoned(true)
	if _, err := c.Batch(ctx, other, Identity{Tenant: 2}, &kvpb.BatchRequest{Tenant: 2,
		Requests: []kvpb.Request{putReq(k, "new")}}); err != nil {
		t.Fatal(err)
	}
	oldNode.SetCordoned(false)
	// A read that passed the old holder's early lease check evaluates now.
	ba := &kvpb.BatchRequest{Tenant: 2, Timestamp: c.Clock().Now(), Requests: []kvpb.Request{getReq(k)}}
	resp, _, err := c.evaluateBatch(ctx, oldNode, rs, ba)
	var nle *kvpb.NotLeaseholderError
	if !errors.As(err, &nle) || nle.Leaseholder != other {
		var got string
		if resp != nil && len(resp.Responses) > 0 {
			got = string(resp.Responses[0].Value)
		}
		t.Fatalf("read on the old leaseholder = %q, %v; want NotLeaseholderError naming %d", got, err, other)
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
	rs, err := c.rangeFor(k)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := rs.group.Leaseholder()
	var other NodeID
	for _, r := range desc.Replicas {
		if r != lh {
			other = r
			break
		}
	}
	if err := rs.group.TransferLease(lh, other); err != nil {
		t.Fatal(err)
	}
	_ = rs.group.CatchUp(other)
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

// TestLatchWaitIsNotCPU holds a range's latch while a batch waits for it, on
// a node that books its vCPU for real on a manual clock. The wait is queueing,
// not CPU: the batch's booking starts at its latch grant, so its caller is
// released at grant + cost, not at arrival + cost.
func TestLatchWaitIsNotCPU(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(10_000, 0))
	const cost = 5 * time.Millisecond
	c := newTestCluster(t, 1, func(cfg *NodeConfig) {
		cfg.Clock = mc
		cfg.Cost = CostConfig{ReadBatchOverhead: cost}
	})
	n, _ := c.Node(1)
	n.ex.accountOnly = false
	k := tenantKey(2, "k")
	rs, err := c.rangeFor(k)
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.NumWaiters(); got != 0 {
		t.Fatalf("%d waiters on the clock before the batch, want 0", got)
	}

	rs.latch.Lock()
	arrival := mc.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Batch(context.Background(), 1, Identity{Tenant: 2},
			&kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(k)}})
		done <- err
	}()
	// Admitted, the batch goes on to the latch the test holds.
	waitUntil(t, "batch to be admitted", func() bool {
		cpu, _ := n.AdmissionStats()
		return cpu.Used == 1
	})
	grant := arrival.Add(3 * time.Millisecond)
	mc.AdvanceTo(grant)
	rs.latch.Unlock()

	waitUntil(t, "batch to sleep on its booking", func() bool { return mc.NumWaiters() == 1 })
	if wake, _ := mc.NextDeadline(); !wake.Equal(grant.Add(cost)) {
		t.Fatalf("batch sleeps until arrival + %v, want its latch grant + cost (%v)",
			wake.Sub(arrival), 3*time.Millisecond+cost)
	}
	mc.AdvanceTo(arrival.Add(cost))
	select {
	case err := <-done:
		t.Fatalf("batch finished at arrival + cost (err %v), before its latch grant + cost", err)
	default:
	}
	mc.AdvanceTo(grant.Add(cost))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not finish at its latch grant + cost")
	}
	if got := n.CPUBusy(); got != cost {
		t.Fatalf("cpu busy = %v, want the batch's cost %v", got, cost)
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

// TestMetaDirectoryInvariants drives the range table through its one
// publish, the swap. A split, a merge and a move each leave the table a
// partition of the keyspace in which every range is found by key and by ID.
// Each retires the ranges it replaces, and its successors' groups hold their
// descriptors' replicas and continue their predecessors' logs. A swap whose
// old ranges are stale or not adjacent, or whose new spans do not tile the
// old ones, is refused and leaves the table as it was.
func TestMetaDirectoryInvariants(t *testing.T) {
	c := newTestCluster(t, 4)
	ds := NewDistSender(c, Identity{Tenant: 2})
	put := func(s string) {
		t.Helper()
		if _, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(tenantKey(2, s), "v")}}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		assertDirectoryPartitions(t, c)
		descs := c.Descriptors()
		byID := c.dir.byID()
		if len(byID) != len(descs) {
			t.Fatalf("after %s: %d ranges by ID, %d by key", step, len(byID), len(descs))
		}
		for i, rs := range byID {
			desc := rs.desc
			if i > 0 && byID[i-1].desc.RangeID >= desc.RangeID {
				t.Fatalf("after %s: ranges not in RangeID order: %v", step, descs)
			}
			if got, err := c.rangeFor(desc.Span.Key); err != nil || got != rs {
				t.Fatalf("after %s: range %d not found by its start key (%v)", step, desc.RangeID, err)
			}
			if rs.retired.Load() {
				t.Fatalf("after %s: range %d is in the table but retired", step, desc.RangeID)
			}
		}
	}
	// succeeded checks the ranges that took the place of preds: each pred is
	// retired and out of the table, and each range now over their span has
	// its descriptor's replicas and the sum of their commit indexes.
	succeeded := func(step string, preds ...*rangeState) {
		t.Helper()
		check(step)
		table := c.dir.byID()
		var commit uint64
		for _, p := range preds {
			if !p.retired.Load() || slices.Contains(table, p) {
				t.Fatalf("after %s: predecessor r%d retired=%v, in the table=%v", step, p.desc.RangeID, p.retired.Load(), slices.Contains(table, p))
			}
			commit += p.group.CommitIndex()
		}
		span := keys.Span{Key: preds[0].desc.Span.Key, EndKey: preds[len(preds)-1].desc.Span.EndKey}
		for _, rs := range table {
			if !span.ContainsKey(rs.desc.Span.Key) {
				continue
			}
			if got := rs.group.Replicas(); !slices.Equal(got, rs.desc.Replicas) {
				t.Fatalf("after %s: r%d's group has replicas %v, its descriptor %v", step, rs.desc.RangeID, got, rs.desc.Replicas)
			}
			if got := rs.group.CommitIndex(); got != commit {
				t.Fatalf("after %s: r%d's commit index is %d, its predecessors' sum %d", step, rs.desc.RangeID, got, commit)
			}
		}
	}
	refused := func(why string, old []*rangeState, next *rangeState) {
		t.Helper()
		before := c.Descriptors()
		retired := make([]bool, len(old))
		for i, rs := range old {
			retired[i] = rs.retired.Load()
		}
		if err := c.dir.swap(old, next); err == nil {
			t.Fatalf("swap of %s was published", why)
		}
		if after := c.Descriptors(); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused swap of %s changed the table:\n%v\n%v", why, before, after)
		}
		for i, rs := range old {
			if rs.retired.Load() != retired[i] {
				t.Fatalf("refused swap of %s changed whether r%d is retired", why, rs.desc.RangeID)
			}
		}
		check("a refused swap of " + why)
	}
	lookup := func(k keys.Key) (*rangeState, *RangeDescriptor) {
		t.Helper()
		rs, err := c.rangeFor(k)
		if err != nil {
			t.Fatal(err)
		}
		return rs, rs.desc
	}
	// successor builds, unpublished, the range that would continue old over
	// span.
	successor := func(old []*rangeState, id RangeID, span keys.Span) *rangeState {
		t.Helper()
		rs, err := c.succeed(old, id, span, old[0].desc.Replicas, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	put("b")
	for _, k := range []keys.Key{keys.MakeTenantPrefix(2), tenantKey(2, "m"), keys.MakeTenantPrefix(3)} {
		pred, _ := lookup(k)
		if err := c.SplitAt(k); err != nil {
			t.Fatal(err)
		}
		succeeded(fmt.Sprintf("a split at %s", k), pred)
	}
	if _, err := c.rangeFor(keys.MinKey); err == nil {
		t.Fatal("a key below the first range was found")
	}

	// A range read before a split is stale once the split publishes. The
	// split's left half keeps its RangeID.
	rs, stale := lookup(tenantKey(2, "a"))
	if err := c.SplitAt(tenantKey(2, "g")); err != nil {
		t.Fatal(err)
	}
	succeeded("a split", rs)
	if _, desc := lookup(tenantKey(2, "a")); desc.RangeID != stale.RangeID {
		t.Fatalf("the split's left half is r%d, want r%d", desc.RangeID, stale.RangeID)
	}
	refused("a stale range", []*rangeState{rs}, successor([]*rangeState{rs}, stale.RangeID, stale.Span))

	// [t2, g) and [m, t3) have [g, m) between them.
	left, leftDesc := lookup(tenantKey(2, "a"))
	right, rightDesc := lookup(tenantKey(2, "x"))
	union := keys.Span{Key: leftDesc.Span.Key, EndKey: rightDesc.Span.EndKey}
	refused("ranges that are not adjacent", []*rangeState{left, right}, successor([]*rangeState{left, right}, 99, union))
	short := keys.Span{Key: leftDesc.Span.Key, EndKey: tenantKey(2, "c")}
	refused("a span that leaves a gap", []*rangeState{left}, successor([]*rangeState{left}, leftDesc.RangeID, short))

	// Writes on both sides make the merged commit index a real sum.
	put("a")
	put("h")
	mid, _ := lookup(tenantKey(2, "h"))
	if did, err := c.MergeAt(tenantKey(2, "a")); err != nil || !did {
		t.Fatalf("MergeAt = (%v, %v)", did, err)
	}
	succeeded("a merge", left, mid)

	rs, desc := lookup(tenantKey(2, "a"))
	var to NodeID
	for _, n := range c.Nodes() {
		if !hasReplica(rs, n.ID()) {
			to = n.ID()
		}
	}
	if err := moveByID(c, desc.RangeID, desc.Replicas[0], to); err != nil {
		t.Fatal(err)
	}
	succeeded("a move", rs)
	if got, gotDesc := lookup(tenantKey(2, "a")); gotDesc.RangeID != desc.RangeID || !reflect.DeepEqual(gotDesc.Span, desc.Span) || !hasReplica(got, to) {
		t.Fatalf("after the move the key's range is %s, want r%d over %s with a replica on n%d", gotDesc, desc.RangeID, desc.Span, to)
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
	rs, err := c.rangeFor(k)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := rs.group.Leaseholder()
	var other NodeID
	for _, r := range desc.Replicas {
		if r != lh {
			other = r
			break
		}
	}
	if err := rs.group.TransferLease(lh, other); err != nil {
		t.Fatal(err)
	}
	_ = rs.group.CatchUp(other)
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
