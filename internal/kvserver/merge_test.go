package kvserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

func TestBoundedMiddleKeyFallback(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	for i := 0; i < 11; i++ {
		k := tenantKey(2, fmt.Sprintf("k%02d", i))
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := c.Node(1)
	mid := boundedMiddleKey(n, keys.MakeTenantSpan(2))
	if !mid.Equal(tenantKey(2, "k05")) {
		t.Fatalf("boundedMiddleKey = %q, want k05", mid)
	}
	// An empty span has no midpoint.
	if got := boundedMiddleKey(n, keys.MakeTenantSpan(7)); got != nil {
		t.Fatalf("boundedMiddleKey on empty span = %q, want nil", got)
	}
}

// assertDirectoryPartitions checks the range directory tiles the keyspace:
// the first range starts at MinKey.Next(), the last ends at MaxKey, and each
// range begins exactly where its predecessor ended.
func assertDirectoryPartitions(t *testing.T, c *Cluster) {
	t.Helper()
	descs := c.Descriptors()
	if len(descs) == 0 {
		t.Fatal("no ranges")
	}
	if !descs[0].Span.Key.Equal(keys.MinKey.Next()) {
		t.Fatalf("first range starts at %q, want MinKey.Next()", descs[0].Span.Key)
	}
	if !descs[len(descs)-1].Span.EndKey.Equal(keys.MaxKey) {
		t.Fatalf("last range ends at %q, want MaxKey", descs[len(descs)-1].Span.EndKey)
	}
	for i := 1; i < len(descs); i++ {
		if !descs[i].Span.Key.Equal(descs[i-1].Span.EndKey) {
			t.Fatalf("gap/overlap between range %d (ends %q) and %d (starts %q)",
				descs[i-1].RangeID, descs[i-1].Span.EndKey, descs[i].RangeID, descs[i].Span.Key)
		}
	}
}

func TestMergeAtRoundTrip(t *testing.T) {
	c := newTestCluster(t, 3)
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	put := func(s, v string) {
		t.Helper()
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(tenantKey(2, s), v)}}); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "1")
	put("z", "2")
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(tenantKey(2, "m")); err != nil {
		t.Fatal(err)
	}
	// Writes after the split land in separate ranges.
	put("b", "3")
	put("y", "4")
	before := len(c.Descriptors())
	did, err := c.MergeAt(keys.MakeTenantPrefix(2))
	if err != nil || !did {
		t.Fatalf("MergeAt = (%v, %v), want (true, nil)", did, err)
	}
	if after := len(c.Descriptors()); after != before-1 {
		t.Fatalf("descriptors %d -> %d, want one fewer", before, after)
	}
	assertDirectoryPartitions(t, c)
	for s, v := range map[string]string{"a": "1", "z": "2", "b": "3", "y": "4"} {
		resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(tenantKey(2, s))}})
		if err != nil {
			t.Fatalf("get %q after merge: %v", s, err)
		}
		if !resp.Responses[0].Exists || string(resp.Responses[0].Value) != v {
			t.Fatalf("get %q after merge = %+v, want %q", s, resp.Responses[0], v)
		}
	}
	// Writes keep working on the merged range.
	put("c", "5")
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{getReq(tenantKey(2, "c"))}})
	if err != nil || !resp.Responses[0].Exists {
		t.Fatalf("post-merge write not readable: %+v err=%v", resp, err)
	}
	// The merged group's replicas converge on its seeded commit index.
	if err := c.CatchUpReplicas(); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.ReplicaStatuses() {
		if st.Applied != st.Commit {
			t.Fatalf("replica %d/%d applied %d != commit %d", st.RangeID, st.Node, st.Applied, st.Commit)
		}
	}
}

func TestMergeRefusesTenantBoundary(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(keys.MakeTenantPrefix(3)); err != nil {
		t.Fatal(err)
	}
	before := len(c.Descriptors())
	// The range [t2, t3) must not merge with [t3, max): no two tenants share
	// a range.
	did, err := c.MergeAt(keys.MakeTenantPrefix(2))
	if err != nil {
		t.Fatal(err)
	}
	if did {
		t.Fatal("merge across a tenant boundary happened")
	}
	if got := len(c.Descriptors()); got != before {
		t.Fatalf("descriptors changed %d -> %d", before, got)
	}
}

func TestMergeRefusesDifferentReplicaSets(t *testing.T) {
	c := newConfiguredCluster(t, 4, ClusterConfig{}, nil)
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SplitAt(tenantKey(2, "m")); err != nil {
		t.Fatal(err)
	}
	// Move one replica of the right range so the sets diverge.
	var right *RangeDescriptor
	for _, d := range c.Descriptors() {
		if d.Span.Key.Equal(tenantKey(2, "m")) {
			right = d
		}
	}
	if right == nil {
		t.Fatal("right range not found")
	}
	var to NodeID
	for _, n := range c.Nodes() {
		member := false
		for _, r := range right.Replicas {
			if r == n.id {
				member = true
			}
		}
		if !member {
			to = n.id
		}
	}
	if err := moveByID(c, right.RangeID, right.Replicas[0], to); err != nil {
		t.Fatal(err)
	}
	did, err := c.MergeAt(keys.MakeTenantPrefix(2))
	if err != nil {
		t.Fatal(err)
	}
	if did {
		t.Fatal("merge with mismatched replica sets happened")
	}
}

// TestSplitDuringTrafficIsRaceFree writes to a tenant while a second
// goroutine splits its range and a third reads lease counts. Every write must
// land, and under the race detector no reader may see a descriptor while a
// split replaces it.
func TestSplitDuringTrafficIsRaceFree(t *testing.T) {
	c := newTestCluster(t, 3)
	for _, k := range []keys.Key{keys.MakeTenantPrefix(2), keys.MakeTenantPrefix(3)} {
		if err := c.SplitAt(k); err != nil {
			t.Fatal(err)
		}
	}
	const writes, splits = 200, 50
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	errs := make(chan error, writes+splits)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			k := tenantKey(2, fmt.Sprintf("k%03d", i))
			if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < splits; i++ {
			if err := c.SplitAt(tenantKey(2, fmt.Sprintf("k%03d", i*4))); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			c.LeaseCounts()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	span := keys.MakeTenantSpan(2)
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Responses[0].Rows); got != writes {
		t.Fatalf("scan after the splits found %d rows, want %d", got, writes)
	}
}

// TestConcurrentSplitsAllLand splits one range at many keys at once. A split
// that waited for the latch while another retired the range looks its key up
// again, so every split lands.
func TestConcurrentSplitsAllLand(t *testing.T) {
	c := newTestCluster(t, 3)
	const splits = 8
	errs := make(chan error, splits)
	var wg sync.WaitGroup
	for i := 0; i < splits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.SplitAt(tenantKey(2, fmt.Sprintf("k%d", i)))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	assertDirectoryPartitions(t, c)
	if got := len(c.Descriptors()); got != splits+1 {
		t.Fatalf("%d ranges after %d splits of one, want %d", got, splits, splits+1)
	}
}

// TestMoveReplicaDuringTrafficIsRaceFree writes to a tenant while a second
// goroutine moves its range's replicas around a 4-node cluster and a third
// ticks the cluster and reads lease counts. Every write must land, though
// each move turns away the writes queued on the range it retires, and under
// the race detector no reader may see a range while a move builds its
// successor.
func TestMoveReplicaDuringTrafficIsRaceFree(t *testing.T) {
	c := newTestCluster(t, 4)
	for _, k := range []keys.Key{keys.MakeTenantPrefix(2), keys.MakeTenantPrefix(3)} {
		if err := c.SplitAt(k); err != nil {
			t.Fatal(err)
		}
	}
	const writes, moves = 200, 50
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	errs := make(chan error, writes+moves)
	moved := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			k := tenantKey(2, fmt.Sprintf("k%03d", i))
			if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(moved)
		for i := 0; i < moves; i++ {
			rs, err := c.rangeFor(tenantKey(2, "k"))
			if err != nil {
				errs <- err
				return
			}
			desc := rs.desc
			to := NodeID(0)
			for _, n := range c.Nodes() {
				if !hasReplica(rs, n.id) {
					to = n.id
				}
			}
			if err := moveByID(c, desc.RangeID, desc.Replicas[i%len(desc.Replicas)], to); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-moved:
				return
			default:
			}
			if i%16 == 0 {
				c.Tick()
			}
			c.LeaseCounts()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	span := keys.MakeTenantSpan(2)
	resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Responses[0].Rows); got != writes {
		t.Fatalf("scan after the moves found %d rows, want %d", got, writes)
	}
}

// TestBatchRechecksRangeUnderLatch changes a range while a put waits for its
// latch. The put looked its range up before the change. A split or a merge
// retires the range, so the put must fail with a RangeNotFoundError, which
// the DistSender retries on the range's successor. It must never write
// through the old group.
func TestBatchRechecksRangeUnderLatch(t *testing.T) {
	t.Run("split", func(t *testing.T) {
		c := newTestCluster(t, 3)
		if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
			t.Fatal(err)
		}
		c.Tick()
		k := tenantKey(2, "k")
		rs, err := c.rangeFor(k)
		if err != nil {
			t.Fatal(err)
		}
		rs.latch.Lock()
		done := putAfterAdmission(t, c, k)
		if did, err := c.splitLocked(rs, k); err != nil || !did {
			t.Fatalf("split under the held latch = (%v, %v)", did, err)
		}
		rs.latch.Unlock()

		var rnf *kvpb.RangeNotFoundError
		if err := <-done; !errors.As(err, &rnf) {
			t.Fatalf("put that waited out a split = %v, want a RangeNotFoundError", err)
		}
		// The same put, through a DistSender, lands on the successor.
		commit := rs.group.CommitIndex()
		ds := NewDistSender(c, Identity{Tenant: 2})
		if _, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}}); err != nil {
			t.Fatal(err)
		}
		succ, err := c.rangeFor(k)
		if err != nil {
			t.Fatal(err)
		}
		if succ == rs || succ.group.CommitIndex() != commit+1 || rs.group.CommitIndex() != commit {
			t.Fatalf("the put committed at %d on its range's successor (was %d) and at %d on the retired range; want %d and %d",
				succ.group.CommitIndex(), commit, rs.group.CommitIndex(), commit+1, commit)
		}
	})
	t.Run("merge", func(t *testing.T) {
		c := newTestCluster(t, 3)
		for _, k := range []keys.Key{keys.MakeTenantPrefix(2), tenantKey(2, "m")} {
			if err := c.SplitAt(k); err != nil {
				t.Fatal(err)
			}
		}
		c.Tick()
		k := tenantKey(2, "c")
		left, err := c.rangeFor(k)
		if err != nil {
			t.Fatal(err)
		}
		right, err := c.rangeFor(tenantKey(2, "x"))
		if err != nil {
			t.Fatal(err)
		}
		// The merge takes the left latch and waits for the right one, held
		// here, so the put queues on the left latch behind the merge.
		right.latch.Lock()
		merged := make(chan error, 1)
		go func() {
			did, err := c.MergeAt(k)
			if err == nil && !did {
				err = errors.New("no merge")
			}
			merged <- err
		}()
		for left.latch.TryLock() {
			left.latch.Unlock()
			time.Sleep(time.Millisecond)
		}
		done := putAfterAdmission(t, c, k)
		right.latch.Unlock()
		if err := <-merged; err != nil {
			t.Fatalf("MergeAt = %v", err)
		}

		var rnf *kvpb.RangeNotFoundError
		if err := <-done; !errors.As(err, &rnf) {
			t.Fatalf("put that waited out a merge = %v, want a RangeNotFoundError", err)
		}
	})
}

// putAfterAdmission sends a put of k to its range's leaseholder and returns
// once the put has passed admission, about to take the range latch. The put's
// error arrives on the returned channel.
func putAfterAdmission(t *testing.T, c *Cluster, k keys.Key) <-chan error {
	t.Helper()
	rs, err := c.rangeFor(k)
	if err != nil {
		t.Fatal(err)
	}
	lh, ok := rs.group.Leaseholder()
	if !ok {
		t.Fatal("range has no leaseholder after a tick")
	}
	tr := trace.New(trace.Options{Clock: timeutil.NewRealClock(), Seed: 1})
	root := tr.StartRoot("test")
	t.Cleanup(root.Finish)
	ctx := trace.ContextWithSpan(context.Background(), root)
	done := make(chan error, 1)
	go func() {
		_, err := c.Batch(ctx, lh, Identity{Tenant: 2}, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{putReq(k, "v")}})
		done <- err
	}()
	// Batch sets admission.wait on its kv.eval span right before it
	// evaluates, and evaluation starts by taking the latch.
	for {
		if ch := root.Children(); len(ch) > 0 {
			if _, ok := ch[0].Attr("admission.wait"); ok {
				return done
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// readThenWriteBelow serves reads at one timestamp, runs between, and then
// writes each of writes one tick below that timestamp. It returns the write
// errors.
func readThenWriteBelow(t *testing.T, c *Cluster, reads []kvpb.Request, writes []keys.Key, between func()) []error {
	t.Helper()
	ds := NewDistSender(c, Identity{Tenant: 2})
	ctx := context.Background()
	ts := c.Clock().Now()
	for _, r := range reads {
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Timestamp: ts, Requests: []kvpb.Request{r}}); err != nil {
			t.Fatal(err)
		}
	}
	between()
	below := hlc.Timestamp{WallTime: ts.WallTime - 1}
	var errs []error
	for _, k := range writes {
		_, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Timestamp: below, Requests: []kvpb.Request{putReq(k, "v")}})
		errs = append(errs, err)
	}
	return errs
}

func assertAllWriteTooOld(t *testing.T, errs []error) {
	t.Helper()
	for i, err := range errs {
		var wto *kvpb.WriteTooOldError
		if !errors.As(err, &wto) {
			t.Fatalf("write %d below a served read = %v, want WriteTooOld", i, err)
		}
	}
}

// TestSplitKeepsTimestampCache checks that the right half of a split
// remembers the reads its parent served: a write below one of them is still
// pushed, for a point read and for a scan over the split key.
func TestSplitKeepsTimestampCache(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.SplitAt(keys.MakeTenantPrefix(2)); err != nil {
		t.Fatal(err)
	}
	reads := []kvpb.Request{
		getReq(tenantKey(2, "m")),
		{Method: kvpb.Scan, Key: tenantKey(2, "a"), EndKey: tenantKey(2, "z")},
	}
	// "m" is the point read; "p" lies in the scanned span, right of the split.
	writes := []keys.Key{tenantKey(2, "m"), tenantKey(2, "p")}
	assertAllWriteTooOld(t, readThenWriteBelow(t, c, reads, writes, func() {
		if err := c.SplitAt(tenantKey(2, "m")); err != nil {
			t.Fatal(err)
		}
	}))
}

// TestMergeKeepsTimestampCache checks that a merged range remembers the
// reads both parents served.
func TestMergeKeepsTimestampCache(t *testing.T) {
	c := newTestCluster(t, 3)
	for _, k := range []keys.Key{keys.MakeTenantPrefix(2), tenantKey(2, "m")} {
		if err := c.SplitAt(k); err != nil {
			t.Fatal(err)
		}
	}
	writes := []keys.Key{tenantKey(2, "c"), tenantKey(2, "x")}
	reads := []kvpb.Request{getReq(writes[0]), getReq(writes[1])}
	assertAllWriteTooOld(t, readThenWriteBelow(t, c, reads, writes, func() {
		if did, err := c.MergeAt(keys.MakeTenantPrefix(2)); err != nil || !did {
			t.Fatalf("MergeAt = (%v, %v)", did, err)
		}
	}))
}
