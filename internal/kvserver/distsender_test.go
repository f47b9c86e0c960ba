package kvserver

import (
	"context"
	"fmt"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/randutil"
)

// splitTenantKeyspace splits tenant 2's keyspace at each of the given suffixes.
func splitTenantKeyspace(t testing.TB, c *Cluster, suffixes ...string) {
	t.Helper()
	for _, s := range suffixes {
		if err := c.SplitAt(tenantKey(2, s)); err != nil {
			t.Fatal(err)
		}
	}
}

// loadKeys writes n keys k000..k<n-1> through ds and returns their suffixes
// in order.
func loadKeys(t testing.TB, ds *DistSender, n int) []string {
	t.Helper()
	ctx := context.Background()
	out := make([]string, n)
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("k%03d", i)
		out[i] = s
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(tenantKey(2, s), fmt.Sprintf("v%03d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// paginateScan drives a MaxKeys-limited scan to completion, asserting that
// every page respects the limit and that rows arrive in strictly ascending
// key order. It returns the concatenated row keys (tenant suffix only).
func paginateScan(t *testing.T, ds *DistSender, maxKeys int64) []string {
	t.Helper()
	ctx := context.Background()
	span := keys.MakeTenantSpan(2)
	req := kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey, MaxKeys: maxKeys}
	prefix := len(keys.MakeTenantPrefix(2))
	var got []string
	for page := 0; page < 1000; page++ {
		resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{req}})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Responses[0]
		if maxKeys > 0 && int64(len(r.Rows)) > maxKeys {
			t.Fatalf("page %d returned %d rows, limit %d", page, len(r.Rows), maxKeys)
		}
		for _, row := range r.Rows {
			s := string(row.Key[prefix:])
			if len(got) > 0 && s <= got[len(got)-1] {
				t.Fatalf("rows out of order: %q after %q", s, got[len(got)-1])
			}
			got = append(got, s)
		}
		if r.ResumeSpan == nil {
			return got
		}
		if maxKeys > 0 && int64(len(r.Rows)) < maxKeys {
			t.Fatalf("page %d returned %d rows under the limit %d yet set a ResumeSpan", page, len(r.Rows), maxKeys)
		}
		if len(got) > 0 && string(r.ResumeSpan.Key[prefix:]) <= got[len(got)-1] {
			t.Fatalf("ResumeSpan %q does not advance past %q", r.ResumeSpan.Key, got[len(got)-1])
		}
		req.Key = r.ResumeSpan.Key
		req.EndKey = r.ResumeSpan.EndKey
	}
	t.Fatal("scan did not terminate in 1000 pages")
	return nil
}

// TestCrossRangeScanMaxKeys covers scans spanning four ranges with MaxKeys
// limits: merged row order, limit enforcement, and ResumeSpan correctness.
func TestCrossRangeScanMaxKeys(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	want := loadKeys(t, ds, 12)
	splitTenantKeyspace(t, c, "k003", "k006", "k009")
	// The walk visits one range at a time; the subtest keeps that mode's name.
	t.Run("sequential", func(t *testing.T) {
		for _, maxKeys := range []int64{0, 1, 4, 5, 100} {
			got := paginateScan(t, ds, maxKeys)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("maxKeys=%d: got %v, want %v", maxKeys, got, want)
			}
		}
	})
}

// Regression: a pushed-down filter can leave a range's page short of MaxKeys
// while the range still has rows to scan. The cross-range walk took the short
// page for an exhausted range, continued into the next one, and returned its
// resume point — silently skipping the rest of the first range.
func TestCrossRangeFilteredScanResumesInsideRange(t *testing.T) {
	c := newTestCluster(t, 3)
	withScanEvaluator(t, prefixEvaluator{})
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	// Left range: two rows the filter drops, then one it keeps. Right range:
	// one it keeps.
	for key, v := range map[string]string{"a1": "x", "a2": "x", "a3": "keep", "b1": "keep"} {
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			putReq(tenantKey(2, key), v)}}); err != nil {
			t.Fatal(err)
		}
	}
	splitTenantKeyspace(t, c, "b")
	filter := filterSpec("k")
	span := keys.MakeTenantSpan(2)
	req := kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey, MaxKeys: 2, Filter: filter}
	var got []string
	for page := 0; ; page++ {
		if page > 10 {
			t.Fatal("scan did not terminate")
		}
		resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{req}})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range resp.Responses[0].Rows {
			got = append(got, string(row.Key[len(keys.MakeTenantPrefix(2)):]))
		}
		if resp.Responses[0].ResumeSpan == nil {
			break
		}
		req.Key, req.EndKey = resp.Responses[0].ResumeSpan.Key, resp.Responses[0].ResumeSpan.EndKey
	}
	if want := []string{"a3", "b1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("filtered paged scan = %v, want %v", got, want)
	}
}

// TestMultiRangeBatchMergesInRequestOrder sends one batch whose requests are
// deliberately shuffled across four ranges and checks every response lands
// at its original index.
func TestMultiRangeBatchMergesInRequestOrder(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	want := loadKeys(t, ds, 16)
	splitTenantKeyspace(t, c, "k004", "k008", "k012")

	// Interleave the ranges: 0, 4, 8, 12, 1, 5, ... so adjacent requests
	// never share a range and any range-order merge would scramble.
	var reqs []kvpb.Request
	var order []int
	for off := 0; off < 4; off++ {
		for i := off; i < 16; i += 4 {
			reqs = append(reqs, getReq(tenantKey(2, want[i])))
			order = append(order, i)
		}
	}
	resp, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(resp.Responses), len(reqs))
	}
	for j, r := range resp.Responses {
		wantVal := fmt.Sprintf("v%03d", order[j])
		if string(r.Value) != wantVal {
			t.Fatalf("response %d = %q, want %q", j, r.Value, wantVal)
		}
	}
}

// A one-request batch in one range goes to the range as it is and comes back
// as the range's response: routing adds nothing to what the range's own
// evaluation allocates.
func TestDistSenderOneRangeAllocs(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	want := loadKeys(t, ds, 1)
	ctx := context.Background()
	ba := &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(tenantKey(2, want[0]))}}
	resp, err := ds.Send(ctx, ba)
	if err != nil || len(resp.Responses) != 1 || string(resp.Responses[0].Value) != "v000" {
		t.Fatalf("get = %+v, %v", resp, err)
	}
	if resp.Timestamp != ba.ReadTs() || resp.Ranges != 1 {
		t.Fatalf("response timestamp %v ranges %d, want %v and 1", resp.Timestamp, resp.Ranges, ba.ReadTs())
	}
	ds.mu.Lock()
	desc := ds.cachedDescLocked(ba.Requests[0].Key)
	ds.mu.Unlock()
	if desc == nil {
		t.Fatal("the first Send left no cached descriptor")
	}
	leaseholder := ds.target(desc, 0)
	send := testing.AllocsPerRun(100, func() { _, _ = ds.Send(ctx, ba) })
	batch := testing.AllocsPerRun(100, func() { _, _ = c.Batch(ctx, leaseholder, ds.identity, ba) })
	if send-batch > 0 {
		t.Fatalf("Send allocates %v objects, the range %v: routing costs %v, want 0", send, batch, send-batch)
	}
}

// A fresh sender's first one-range Send looks the range up in META and
// sends the batch on as it is: a cold cache costs the lookup and its cache
// entry, and nothing per request.
func TestDistSenderColdCacheAllocs(t *testing.T) {
	c := newTestCluster(t, 3)
	want := loadKeys(t, NewDistSender(c, Identity{Tenant: 2}), 1)
	ctx := context.Background()
	ba := &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(tenantKey(2, want[0]))}}
	// AllocsPerRun calls the function once before it counts.
	const runs = 50
	senders := make([]*DistSender, runs+1)
	for i := range senders {
		senders[i] = NewDistSender(c, Identity{Tenant: 2})
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		ds := senders[next]
		next++
		resp, err := ds.Send(ctx, ba)
		if err != nil || string(resp.Responses[0].Value) != "v000" {
			t.Fatalf("cold get = %+v, %v", resp, err)
		}
	})
	if n > 8 {
		t.Fatalf("a cold one-range Send allocates %v objects, want at most 8", n)
	}
}

// TestRandomizedSplitScanProperty is a property test: under random splits
// and random page limits (seeded RNG), a paginated scan always returns
// every key exactly once, in order.
func TestRandomizedSplitScanProperty(t *testing.T) {
	const numKeys = 40
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := randutil.NewRand(seed)
			c := newTestCluster(t, 3)
			ds := NewDistSender(c, Identity{Tenant: 2})
			want := loadKeys(t, ds, numKeys)
			// 3..6 random distinct split points inside the key run.
			nSplits := 3 + rng.Intn(4)
			used := map[int]bool{}
			for len(used) < nSplits {
				i := 1 + rng.Intn(numKeys-1)
				if !used[i] {
					used[i] = true
					splitTenantKeyspace(t, c, want[i])
				}
			}
			maxKeys := int64(1 + rng.Intn(7))
			got := paginateScan(t, ds, maxKeys)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("got %v, want %v", got, want)
			}
		})
	}
}

// TestDistSenderCacheBounds crosses the descriptor-cache and lease-hint caps
// and checks the caps hold after every operation.
func TestDistSenderCacheBounds(t *testing.T) {
	const limit = 4
	c := newTestCluster(t, 3)
	seed := NewDistSender(c, Identity{Tenant: 2})
	want := loadKeys(t, seed, 24)
	// 11 extra ranges: far more than the cap.
	splitTenantKeyspace(t, c, want[2], want[4], want[6], want[8], want[10],
		want[12], want[14], want[16], want[18], want[20], want[22])

	ds := NewDistSender(c, Identity{Tenant: 2})
	ds.cacheLimit = limit
	ctx := context.Background()
	for i, s := range want {
		resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			getReq(tenantKey(2, s))}})
		if err != nil {
			t.Fatal(err)
		}
		if wantVal := fmt.Sprintf("v%03d", i); string(resp.Responses[0].Value) != wantVal {
			t.Fatalf("key %s = %q, want %q", s, resp.Responses[0].Value, wantVal)
		}
		ds.mu.Lock()
		descs, hints := len(ds.mu.cache), len(ds.mu.leaseHints)
		ds.mu.Unlock()
		if descs > limit {
			t.Fatalf("descriptor cache grew to %d, cap %d", descs, limit)
		}
		if hints > limit {
			t.Fatalf("lease hints grew to %d, cap %d", hints, limit)
		}
	}
	// The caches are bounded but still functional: a full scan works.
	got := paginateScan(t, ds, 5)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan with bounded caches: got %v, want %v", got, want)
	}
}
