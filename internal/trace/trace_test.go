package trace

import (
	"context"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

func newTestTracer(seed int64) (*Tracer, *timeutil.ManualClock) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	return New(Options{Clock: mc, Seed: seed}), mc
}

func TestSpanNesting(t *testing.T) {
	tr, mc := newTestTracer(1)
	root := tr.StartRoot("root")
	ctx := ContextWithSpan(context.Background(), root)

	ctx2, child := StartSpan(ctx, "child")
	mc.Advance(10 * time.Millisecond)
	_, grand := StartSpan(ctx2, "grandchild")
	mc.Advance(5 * time.Millisecond)
	grand.Finish()
	child.Finish()
	mc.Advance(time.Millisecond)
	root.Finish()

	if got := root.Duration(); got != 16*time.Millisecond {
		t.Fatalf("root duration = %v, want 16ms", got)
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Op() != "child" {
		t.Fatalf("root children = %v", kids)
	}
	gk := kids[0].Children()
	if len(gk) != 1 || gk[0].Op() != "grandchild" {
		t.Fatalf("child children = %v", gk)
	}
	if gk[0].TraceID() != root.TraceID() {
		t.Fatalf("grandchild trace ID %x != root %x", gk[0].TraceID(), root.TraceID())
	}
	if gk[0].Duration() != 5*time.Millisecond {
		t.Fatalf("grandchild duration = %v", gk[0].Duration())
	}
}

func TestDeterministicIDs(t *testing.T) {
	run := func() string {
		tr, mc := newTestTracer(42)
		root := tr.StartRoot("proxy.conn")
		ctx := ContextWithSpan(context.Background(), root)
		ctx2, s1 := StartSpan(ctx, "sql.exec")
		mc.Advance(time.Millisecond)
		_, s2 := StartSpan(ctx2, "dist.send")
		s2.Finish()
		s1.Finish()
		root.Finish()
		return StructureString(root)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed structure differs:\n%s\nvs\n%s", a, b)
	}
	tr, _ := newTestTracer(43)
	other := tr.StartRoot("proxy.conn")
	other.Finish()
	if strings.Contains(a, StructureString(other)[:17]) {
		t.Fatalf("different seeds produced the same trace ID")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if s := tr.StartRoot("x"); s != nil {
		t.Fatal("nil tracer StartRoot should return nil span")
	}
	ctx, s := tr.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer StartSpan should return nil span")
	}
	ctx, s = StartSpan(ctx, "y") // no span in ctx → no-op
	if s != nil {
		t.Fatal("free StartSpan without parent should return nil span")
	}
	// All methods must be no-ops on a nil span.
	s.Eventf("ev %d", 1)
	s.SetAttr("k", 1)
	if _, ok := s.Attr("k"); ok {
		t.Fatal("nil span Attr should report unset")
	}
	s.Finish()
	if s.StartChild("c") != nil {
		t.Fatal("nil span StartChild should return nil")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("no span should be in ctx")
	}
}

func TestEventsAndAttrs(t *testing.T) {
	tr, mc := newTestTracer(1)
	s := tr.StartRoot("op")
	s.Eventf("first %s", "event")
	mc.Advance(time.Second)
	s.Eventf("second")
	s.SetAttr("k", 1)
	s.SetAttr("k", 2) // overwrite
	s.SetAttr("wait", 3*time.Millisecond)
	s.Finish()

	evs := s.Events()
	if len(evs) != 2 || evs[0].Msg != "first event" || evs[1].Msg != "second" {
		t.Fatalf("events = %v", evs)
	}
	if evs[1].At.Sub(evs[0].At) != time.Second {
		t.Fatalf("event timestamps not clock-driven: %v", evs)
	}
	if v, ok := s.Attr("k"); !ok || v.(int) != 2 {
		t.Fatalf("attr k = %v, %v", v, ok)
	}
	if len(s.Attrs()) != 2 {
		t.Fatalf("attrs = %v", s.Attrs())
	}
}

func TestRecorderRingAndSlowRetention(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	tr := New(Options{Clock: mc, Seed: 1, RingSize: 4, SlowSize: 2, SlowThreshold: 100 * time.Millisecond})
	rec := tr.Recorder()

	finishRoot := func(op string, d time.Duration) {
		s := tr.StartRoot(op)
		mc.Advance(d)
		s.Finish()
	}
	for i := 0; i < 10; i++ {
		finishRoot("fast", time.Millisecond)
	}
	if got := len(rec.RecentRoots()); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
	finishRoot("slow1", 150*time.Millisecond)
	finishRoot("slow2", 200*time.Millisecond)
	finishRoot("slow3", 300*time.Millisecond)
	for i := 0; i < 10; i++ {
		finishRoot("fast", time.Millisecond)
	}
	slow := rec.SlowRoots()
	if len(slow) != 2 {
		t.Fatalf("slow retained %d, want 2 (bounded)", len(slow))
	}
	if slow[0].Op() != "slow2" || slow[1].Op() != "slow3" {
		t.Fatalf("slow eviction should drop oldest: %s, %s", slow[0].Op(), slow[1].Op())
	}
	// Slow traces survive ring churn.
	for _, s := range rec.RecentRoots() {
		if s.Op() == "slow2" || s.Op() == "slow3" {
			t.Fatalf("ring should have churned past slow traces")
		}
	}
	if s := rec.OpSummary("fast"); s.Count != 20 {
		t.Fatalf("fast count = %d, want 20", s.Count)
	}
}

func TestStartRemoteAttachesToLiveParent(t *testing.T) {
	tr, _ := newTestTracer(1)
	parent := tr.StartRoot("proxy.exchange")
	remote := tr.StartRemote(parent.TraceID(), parent.SpanID(), "sqlnode.query")
	if remote.TraceID() != parent.TraceID() {
		t.Fatalf("remote trace ID %x != parent %x", remote.TraceID(), parent.TraceID())
	}
	remote.Finish()
	parent.Finish()
	kids := parent.Children()
	if len(kids) != 1 || kids[0] != remote {
		t.Fatalf("remote span should attach to live parent; children=%v", kids)
	}
	// After the parent finished it is no longer live: a late remote
	// child becomes a detached root on the same trace.
	late := tr.StartRemote(parent.TraceID(), parent.SpanID(), "late")
	late.Finish()
	roots := tr.Recorder().RecentRoots()
	found := false
	for _, r := range roots {
		if r == late {
			found = true
		}
	}
	if !found {
		t.Fatal("detached remote span should be recorded as a root")
	}
	if tr.StartRemote(0, 0, "none") != nil {
		t.Fatal("zero trace ID should yield a no-op span")
	}
}

func TestWriteTracez(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	reg := metric.NewRegistry()
	tr := New(Options{Clock: mc, Seed: 1, Metrics: reg, SlowThreshold: 50 * time.Millisecond})
	root := tr.StartRoot("proxy.conn")
	ctx := ContextWithSpan(context.Background(), root)
	_, child := StartSpan(ctx, "sql.exec")
	child.SetAttr("stmt", "select")
	child.Eventf("row fetched")
	mc.Advance(60 * time.Millisecond)
	child.Finish()
	root.Finish()

	var b strings.Builder
	if err := tr.Recorder().WriteTracez(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"proxy.conn", "sql.exec", "retained slow traces", "stmt=select", "event: row fetched", "P99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tracez output missing %q:\n%s", want, out)
		}
	}
	if c, ok := reg.Get("trace.spans_finished").(*metric.Counter); !ok || c.Value() != 2 {
		t.Fatalf("trace.spans_finished not registered/counted")
	}
	// Nil recorder renders a placeholder rather than crashing.
	var nilRec *Recorder
	b.Reset()
	if err := nilRec.WriteTracez(&b); err != nil || !strings.Contains(b.String(), "disabled") {
		t.Fatalf("nil recorder render: %q, %v", b.String(), err)
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr, mc := newTestTracer(1)
	s := tr.StartRoot("op")
	mc.Advance(time.Millisecond)
	s.Finish()
	mc.Advance(time.Hour)
	s.Finish()
	if s.Duration() != time.Millisecond {
		t.Fatalf("second Finish must not move end time: %v", s.Duration())
	}
	if got := tr.Recorder().OpSummary("op").Count; got != 1 {
		t.Fatalf("double-record on repeat Finish: count=%d", got)
	}
}

// TestForkedChildDeterminism: descendants of forked children draw span IDs
// from branch-private streams, so a parallel region produces byte-identical
// structure across same-seed runs regardless of goroutine interleaving.
func TestForkedChildDeterminism(t *testing.T) {
	run := func(seed int64, reverse bool) string {
		tr, _ := newTestTracer(seed)
		root := tr.StartRoot("root")
		// Fork branches in deterministic order (as the DistSender fan-out
		// does before launching goroutines)...
		branches := make([]*Span, 4)
		for i := range branches {
			branches[i] = root.StartForkedChild("branch")
		}
		// ...then run the per-branch work in an arbitrary order to model
		// scheduler nondeterminism. Each branch's descendants draw from its
		// private stream, so the order must not matter.
		order := []int{0, 1, 2, 3}
		if reverse {
			order = []int{3, 2, 1, 0}
		}
		for _, i := range order {
			ctx := ContextWithSpan(context.Background(), branches[i])
			_, inner := StartSpan(ctx, "work")
			inner.Finish()
			branches[i].Finish()
		}
		root.Finish()
		return StructureString(root)
	}
	a, b := run(7, false), run(7, true)
	if a != b {
		t.Fatalf("forked-branch traces differ across interleavings:\n--- in order\n%s\n--- reversed\n%s", a, b)
	}
	if c := run(8, false); c == a {
		t.Fatal("different seeds produced identical forked traces")
	}
	// Branches must have distinct IDs from each other and the root stream.
	tr, _ := newTestTracer(7)
	root := tr.StartRoot("root")
	b1 := root.StartForkedChild("b1")
	b2 := root.StartForkedChild("b2")
	plain := root.StartChild("plain")
	seen := map[uint64]bool{root.SpanID(): true}
	for _, s := range []*Span{b1, b2, plain} {
		if s.TraceID() != root.TraceID() {
			t.Fatalf("%s trace ID %x != root %x", s.Op(), s.TraceID(), root.TraceID())
		}
		if seen[s.SpanID()] {
			t.Fatalf("duplicate span ID %x", s.SpanID())
		}
		seen[s.SpanID()] = true
		s.Finish()
	}
	root.Finish()
}

// TestForkedChildNilSafety: forking from a nil span is a no-op.
func TestForkedChildNilSafety(t *testing.T) {
	var s *Span
	if got := s.StartForkedChild("x"); got != nil {
		t.Fatalf("nil span forked child = %v", got)
	}
}

// A long-lived parent keeps its most recent maxChildren children: finished
// ones are evicted oldest first and counted, one still in flight never is,
// and the tracez render says how many went.
func TestSpanChildrenAreCapped(t *testing.T) {
	tr, _ := newTestTracer(1)
	root := tr.StartRoot("proxy.conn")
	inFlight := root.StartChild("proxy.migrate")
	const n = 10000
	for i := 0; i < n; i++ {
		root.StartChild("proxy.exchange").Finish()
	}
	kids := root.Children()
	if len(kids) > maxChildren {
		t.Fatalf("%d children attached, cap is %d", len(kids), maxChildren)
	}
	if kids[0] != inFlight {
		t.Fatalf("the unfinished child was evicted; oldest attached is %s", kids[0].Op())
	}
	if got, want := root.DroppedChildren(), n+1-len(kids); got != want {
		t.Fatalf("DroppedChildren = %d, want %d", got, want)
	}
	root.Finish()
	if out := RenderTree(root); !strings.Contains(out, "earlier children dropped") {
		t.Fatalf("render does not mention the dropped children:\n%s", out)
	}

	// Children all in flight grow past the cap rather than lose one.
	busy := tr.StartRoot("dist.fanout")
	for i := 0; i < maxChildren+10; i++ {
		busy.StartChild("dist.send")
	}
	if got := len(busy.Children()); got != maxChildren+10 || busy.DroppedChildren() != 0 {
		t.Fatalf("in-flight children: %d attached, %d dropped", got, busy.DroppedChildren())
	}

	// Below the cap nothing changes: no eviction, no extra line.
	small := tr.StartRoot("proxy.conn")
	small.StartChild("proxy.exchange").Finish()
	small.Finish()
	if small.DroppedChildren() != 0 || strings.Contains(RenderTree(small), "dropped") {
		t.Fatalf("a short trace reports dropped children:\n%s", RenderTree(small))
	}
}
