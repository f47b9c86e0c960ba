package crdbserverless

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/trace"
)

// runTracedWorkload runs a fixed point-read workload through the proxy and
// returns the finished proxy.conn root trace. The root span finishes
// asynchronously when the proxy tears the connection down, so the recorder
// is polled briefly.
func runTracedWorkload(t *testing.T, seed int64) *trace.Span {
	t.Helper()
	s := newServerless(t, Options{TraceSeed: seed})
	defer s.Close()
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "traced", TenantOptions{}); err != nil {
		t.Fatal(err)
	}
	conn, err := s.Connect("traced", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("CREATE TABLE t (a INT PRIMARY KEY, b INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := conn.Query("INSERT INTO t VALUES ($1, $2)", DInt(int64(i)), DInt(int64(i*i))); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Query("SELECT b FROM t WHERE a = $1", DInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, root := range s.Tracer().Recorder().RecentRoots() {
			if root.Op() == "proxy.conn" {
				return root
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no proxy.conn root trace recorded")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPointReadTraceDepth: a single point read through the proxy produces
// one trace with at least five nested spans — proxy connection, SQL
// statement execution, transaction, DistSender send, and KV evaluation.
func TestPointReadTraceDepth(t *testing.T) {
	root := runTracedWorkload(t, 7)

	// Some root-to-leaf chain must contain the five point-read ops as an
	// ordered subsequence (other ops, like proxy.exchange and
	// sqlnode.query, may interleave).
	want := []string{"proxy.conn", "sql.exec", "txn.run", "dist.send", "kv.eval"}
	found := false
	var walk func(sp *trace.Span, path []string)
	walk = func(sp *trace.Span, path []string) {
		path = append(path, sp.Op())
		if len(sp.Children()) == 0 {
			i := 0
			for _, op := range path {
				if i < len(want) && op == want[i] {
					i++
				}
			}
			if i == len(want) && len(path) >= 5 {
				found = true
			}
		}
		for _, c := range sp.Children() {
			walk(c, path)
		}
	}
	walk(root, nil)
	if !found {
		t.Fatalf("no span chain contains %s in order:\n%s",
			strings.Join(want, " > "), traceStructure(root))
	}
}

// TestSameSeedTracesAreIdentical: two deployments with the same trace seed
// running the same workload produce byte-identical trace IDs, span IDs,
// and span structure.
func TestSameSeedTracesAreIdentical(t *testing.T) {
	a := traceStructure(runTracedWorkload(t, 42))
	b := traceStructure(runTracedWorkload(t, 42))
	if a != b {
		t.Fatalf("same-seed traces differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	// A different seed must produce different IDs (the structure lines
	// embed trace and span IDs).
	c := traceStructure(runTracedWorkload(t, 43))
	if a == c {
		t.Fatal("different seeds produced identical trace IDs")
	}
}

// runMultiRangeBatchTrace runs a 16-request batch spread across four ranges
// through a fresh DistSender, under a tracer seeded with seed, and returns
// the root trace's structure rendering and the batch's dist.send span.
func runMultiRangeBatchTrace(t *testing.T, seed int64) (string, *trace.Span) {
	t.Helper()
	tr := trace.New(trace.Options{Seed: seed})
	cheap := kvserver.CostConfig{
		ReadBatchOverhead:  time.Nanosecond,
		WriteBatchOverhead: time.Nanosecond,
		ReadRequestCost:    time.Nanosecond,
		WriteRequestCost:   time.Nanosecond,
	}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID: kvserver.NodeID(i), VCPUs: 2, Cost: cheap}))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ds := kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	root := tr.StartRoot("test.batch")
	ctx := trace.ContextWithSpan(context.Background(), root)
	key := func(i int) keys.Key {
		return append(keys.MakeTenantPrefix(2), []byte(fmt.Sprintf("k%02d", i))...)
	}
	for i := 0; i < 16; i++ {
		if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
			{Method: kvpb.Put, Key: key(i), Value: []byte(fmt.Sprintf("v%02d", i))}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, split := range []int{4, 8, 12} {
		if err := c.SplitAt(key(split)); err != nil {
			t.Fatal(err)
		}
	}
	ba := &kvpb.BatchRequest{Tenant: 2}
	for i := 0; i < 16; i++ {
		ba.Requests = append(ba.Requests, kvpb.Request{Method: kvpb.Get, Key: key(i)})
	}
	// A fresh sender sees the post-split range layout, so the batch walks
	// the four ranges.
	ds = kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2})
	resp, err := ds.Send(ctx, ba)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Responses {
		if want := fmt.Sprintf("v%02d", i); string(r.Value) != want {
			t.Fatalf("response %d = %q, want %q", i, r.Value, want)
		}
	}
	root.Finish()
	children := root.Children()
	return traceStructure(root), children[len(children)-1]
}

// TestMultiRangeBatchTraceDeterminism: a batch over four ranges visits each
// once, under its own kv.eval span, says on its dist.send span how many
// ranges it visited, and produces byte-identical trace structure (IDs and
// span tree) on every same-seed run.
func TestMultiRangeBatchTraceDeterminism(t *testing.T) {
	a, send := runMultiRangeBatchTrace(t, 42)
	var evals int
	for _, c := range send.Children() {
		if c.Op() == "kv.eval" {
			evals++
		}
	}
	if send.Op() != "dist.send" || evals != 4 {
		t.Fatalf("%s has %d kv.eval spans, want dist.send with one per range:\n%s", send.Op(), evals, a)
	}
	if got, _ := send.Attr("dist.ranges"); got != 4 {
		t.Fatalf("dist.ranges = %v, want 4", got)
	}
	for i := 0; i < 5; i++ {
		if b, _ := runMultiRangeBatchTrace(t, 42); a != b {
			t.Fatalf("same-seed multi-range traces differ (run %d):\n--- run 1\n%s\n--- run %d\n%s", i+2, a, i+2, b)
		}
	}
	if c, _ := runMultiRangeBatchTrace(t, 43); a == c {
		t.Fatal("different seeds produced identical trace IDs")
	}
}

// traceStructure renders a trace's deterministic skeleton: trace ID, span
// IDs, parent links and operation names, with no timestamps or durations.
func traceStructure(root *trace.Span) string {
	var b strings.Builder
	var walk func(s *trace.Span, depth int)
	walk = func(s *trace.Span, depth int) {
		fmt.Fprintf(&b, "%s%016x/%016x %s\n", strings.Repeat("  ", depth), s.TraceID(), s.SpanID(), s.Op())
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}
