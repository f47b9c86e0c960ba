package kvserver

import (
	"context"
	"fmt"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
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
	if err := c.MoveReplica(right.RangeID, right.Replicas[0], to); err != nil {
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
