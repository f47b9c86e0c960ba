package trace

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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
		return structureString(root)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed structure differs:\n%s\nvs\n%s", a, b)
	}
	tr, _ := newTestTracer(43)
	other := tr.StartRoot("proxy.conn")
	other.Finish()
	if strings.Contains(a, structureString(other)[:17]) {
		t.Fatalf("different seeds produced the same trace ID")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if s := tr.StartRoot("x"); s != nil {
		t.Fatal("nil tracer StartRoot should return nil span")
	}
	ctx, s := StartSpan(context.Background(), "y") // no span in ctx → no-op
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
	tr := New(Options{Clock: mc, Seed: 1})
	rec := tr.Recorder()

	finishRoot := func(op string, d time.Duration) {
		s := tr.StartRoot(op)
		mc.Advance(d)
		s.Finish()
	}
	for i := 0; i < ringSize+6; i++ {
		finishRoot("fast", time.Millisecond)
	}
	if got := len(rec.RecentRoots()); got != ringSize {
		t.Fatalf("ring holds %d, want %d", got, ringSize)
	}
	// One more slow root than the list holds, each at least the threshold.
	for i := 0; i <= slowSize; i++ {
		finishRoot(fmt.Sprintf("slow%d", i), slowThreshold+time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < ringSize; i++ {
		finishRoot("fast", time.Millisecond)
	}
	slow := rec.SlowRoots()
	if len(slow) != slowSize {
		t.Fatalf("slow retained %d, want %d (bounded)", len(slow), slowSize)
	}
	if slow[0].Op() != "slow1" || slow[slowSize-1].Op() != fmt.Sprintf("slow%d", slowSize) {
		t.Fatalf("slow eviction should drop oldest: %s ... %s", slow[0].Op(), slow[slowSize-1].Op())
	}
	// Slow traces survive ring churn.
	for _, s := range rec.RecentRoots() {
		if strings.HasPrefix(s.Op(), "slow") {
			t.Fatalf("ring should have churned past slow traces")
		}
	}
	if s := rec.OpSummary("fast"); s.Count != 2*ringSize+6 {
		t.Fatalf("fast count = %d, want %d", s.Count, 2*ringSize+6)
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
	tr := New(Options{Clock: mc, Seed: 1, Metrics: reg})
	root := tr.StartRoot("proxy.conn")
	ctx := ContextWithSpan(context.Background(), root)
	_, child := StartSpan(ctx, "sql.exec")
	child.SetAttr("stmt", "select")
	child.Eventf("row fetched")
	mc.Advance(slowThreshold + 10*time.Millisecond)
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

// A long-lived parent keeps its most recent maxChildren children: finished
// ones are evicted oldest first and counted, one still in flight never is,
// and the tracez render says how many went.
func TestSpanChildrenAreCapped(t *testing.T) {
	tr, _ := newTestTracer(1)
	root := tr.StartRoot("proxy.conn")
	inFlight := root.StartChild("proxy.migrate")
	const n = 10000
	started := make([]*Span, n)
	for i := range started {
		started[i] = root.StartChild("proxy.exchange")
		started[i].Finish()
	}
	kids := root.Children()
	if len(kids) != maxChildren {
		t.Fatalf("%d children attached, cap is %d", len(kids), maxChildren)
	}
	if kids[0] != inFlight {
		t.Fatalf("the unfinished child was evicted; oldest attached is %s", kids[0].Op())
	}
	// The rest are the most recently started, in start order.
	if !slices.Equal(kids[1:], started[n-(maxChildren-1):]) {
		t.Fatal("the children kept are not the newest finished ones in start order")
	}
	if got, want := root.DroppedChildren(), n+1-len(kids); got != want {
		t.Fatalf("DroppedChildren = %d, want %d", got, want)
	}
	root.Finish()
	if out := renderTree(root); !strings.Contains(out, "earlier children dropped") {
		t.Fatalf("render does not mention the dropped children:\n%s", out)
	}

	// Children all in flight grow past the cap rather than lose one.
	busy := tr.StartRoot("busy")
	for i := 0; i < maxChildren+10; i++ {
		busy.StartChild("dist.send")
	}
	inflight := busy.Children()
	if got := len(inflight); got != maxChildren+10 || busy.DroppedChildren() != 0 {
		t.Fatalf("in-flight children: %d attached, %d dropped", got, busy.DroppedChildren())
	}
	// Once they finish, the next child brings the span back under the cap.
	for _, c := range inflight {
		c.Finish()
	}
	busy.StartChild("dist.send")
	if got := len(busy.Children()); got != maxChildren || busy.DroppedChildren() != 11 {
		t.Fatalf("after the burst: %d attached, %d dropped", got, busy.DroppedChildren())
	}

	// Below the cap nothing changes: no eviction, no extra line.
	small := tr.StartRoot("proxy.conn")
	small.StartChild("proxy.exchange").Finish()
	small.Finish()
	if small.DroppedChildren() != 0 || strings.Contains(renderTree(small), "dropped") {
		t.Fatalf("a short trace reports dropped children:\n%s", renderTree(small))
	}
}

// The span StartSpan returns is the context it returns: it carries itself,
// is found through contexts derived from it, and otherwise behaves as the
// context it was started from.
func TestSpanIsItsOwnContext(t *testing.T) {
	tr, _ := newTestTracer(1)
	type userKey struct{}
	deadline := time.Now().Add(time.Hour)
	base, cancel := context.WithDeadline(context.WithValue(context.Background(), userKey{}, "v"), deadline)
	defer cancel()
	root := tr.StartRoot("root")
	ctx, sp := StartSpan(ContextWithSpan(base, root), "child")
	if ctx != context.Context(sp) {
		t.Fatalf("StartSpan returned a %T wrapped around the span", ctx)
	}
	if SpanFromContext(ctx) != sp {
		t.Fatal("the span context does not carry its span")
	}
	wrapped, cancelWrapped := context.WithCancel(context.WithValue(ctx, userKey{}, "shadow"))
	defer cancelWrapped()
	if SpanFromContext(wrapped) != sp {
		t.Fatal("span not found through contexts derived from the span context")
	}
	_, grand := StartSpan(wrapped, "grandchild")
	if kids := sp.Children(); len(kids) != 1 || kids[0] != grand {
		t.Fatalf("a span started from a derived context is not the span's child: %v", kids)
	}
	if d, ok := ctx.Deadline(); !ok || !d.Equal(deadline) {
		t.Fatalf("Deadline = %v, %v; want the parent context's", d, ok)
	}
	if ctx.Value(userKey{}) != "v" {
		t.Fatalf("Value = %v; want the parent context's", ctx.Value(userKey{}))
	}
	if ctx.Err() != nil {
		t.Fatalf("Err = %v before cancel", ctx.Err())
	}
	cancel()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done not closed by the parent context's cancel")
	}
	<-wrapped.Done() // and cancellation passes through the span to what derives from it
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("Err = %v after cancel", ctx.Err())
	}
	// A span started without a context is a context too: never done, no values.
	if root.Done() != nil || root.Err() != nil || root.Value(userKey{}) != nil {
		t.Fatal("a root span's context is not background-like")
	}
	if _, ok := root.Deadline(); ok {
		t.Fatal("a root span has a deadline")
	}
}

type mutableErr struct{ msg string }

func (e *mutableErr) Error() string { return e.msg }

// Eventf formats when Events is read, except what could read differently by
// then: that it formats at the call.
func TestEventfRendersMutableArgumentsAtTheCall(t *testing.T) {
	tr, _ := newTestTracer(1)
	s := tr.StartRoot("op")
	err := &mutableErr{msg: "at the call"}
	buf := []byte("abc")
	s.Eventf("failed: %v", err)
	s.Eventf("wrote %s", buf)
	s.Eventf("wait %v at %v, %d%% of %q", 3*time.Millisecond, fakeStamp{wall: 7}, 50, "budget")
	s.Eventf("done")
	err.msg = "later"
	buf[0] = 'X'
	var got []string
	for _, e := range s.Events() {
		got = append(got, e.Msg)
	}
	want := []string{"failed: at the call", "wrote abc", `wait 3ms at 7.0, 50% of "budget"`, "done"}
	if !slices.Equal(got, want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
	if !immutable([]any{1, "s", 2.5, true, nil, time.Second, fakeStamp{}, [2]int{}}) {
		t.Fatal("pointer-free arguments should be kept for later")
	}
	for _, a := range []any{err, buf, &buf, map[string]int{}, struct{ p *int }{}, [1][]byte{}, func() {}} {
		if immutable([]any{1, a}) {
			t.Fatalf("%T holds a pointer and must be formatted at the call", a)
		}
	}
}

// fakeStamp is a pointer-free Stringer, as hlc.Timestamp is.
type fakeStamp struct {
	wall    int64
	logical int32
}

func (f fakeStamp) String() string { return "7.0" }

// Only a span whose ID can leave the process is findable by it: spans started
// from a context never enter the tracer's live map.
func TestOnlyHandleStartedSpansAreLive(t *testing.T) {
	tr, _ := newTestTracer(1)
	live := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.mu.live)
	}
	root := tr.StartRoot("proxy.conn")
	exchange := root.StartChild("proxy.exchange")
	if live() != 2 {
		t.Fatalf("live = %d after StartRoot and StartChild, want 2", live())
	}
	query := tr.StartRemote(exchange.TraceID(), exchange.SpanID(), "sqlnode.query")
	ctx, exec := StartSpan(ContextWithSpan(context.Background(), query), "sql.exec")
	orphan := tr.newSpan(context.Background(), "background", 0, nil, false)
	_, send := StartSpan(ctx, "dist.send")
	if live() != 2 {
		t.Fatalf("live = %d: a span started from a context or a remote parent entered it", live())
	}
	late := tr.StartRemote(exec.TraceID(), exec.SpanID(), "late")
	if len(exec.Children()) != 1 {
		t.Fatal("a context-started span was found as a remote parent")
	}
	for _, s := range []*Span{late, send, orphan, exec, query, exchange, root} {
		s.Finish()
	}
	if live() != 0 {
		t.Fatalf("live = %d after every span finished", live())
	}
	if roots := tr.Recorder().RecentRoots(); len(roots) != 3 {
		t.Fatalf("%d roots recorded, want the late remote, the orphan and the connection", len(roots))
	}
}

// Several goroutines grow one span — children past the cap, attributes past
// the inline ones, events — while another renders it. For the race detector.
func TestConcurrentWritersAndReader(t *testing.T) {
	tr, _ := newTestTracer(1)
	root := tr.StartRoot("proxy.conn")
	ctx := ContextWithSpan(context.Background(), root)
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = renderTree(root)
			}
		}
	}()
	keys := []string{"a", "b", "c", "d"}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, c := StartSpan(ctx, "child")
				c.SetAttr("i", i)
				c.Eventf("writer %d step %d", w, i)
				c.Finish()
				root.SetAttr(keys[w], i)
				root.Eventf("writer %d made child %d", w, i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	root.Finish()
	if got := len(root.Children()) + root.DroppedChildren(); got != writers*perWriter {
		t.Fatalf("children attached + dropped = %d, want %d", got, writers*perWriter)
	}
	if len(root.Attrs()) != writers || len(root.Events()) != writers*perWriter {
		t.Fatalf("%d attrs, %d events", len(root.Attrs()), len(root.Events()))
	}
}

// A span is one allocation of at most 192 bytes, a size class: its start is
// an offset from the tracer's epoch, and its fixed flags sit in the padding
// of its mu. Widening it — a third inline attribute, an inline end time —
// buys allocations with bytes, and measured worse on every workload.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got > 192 {
		t.Fatalf("Span is %d bytes, budget 192", got)
	}
}

// A span's start is the clock reading it started at: on a manual clock
// exactly, and on the real clock with its monotonic reading, so durations
// measured from it ignore wall-clock steps.
func TestSpanStartIsTheClockReading(t *testing.T) {
	tr, mc := newTestTracer(1)
	mc.Advance(1500 * time.Millisecond)
	s := tr.StartRoot("op")
	if want := time.Unix(1, 500_000_000); !s.Start().Equal(want) || s.Start() != want {
		t.Fatalf("Start() = %v, want %v", s.Start(), want)
	}
	mc.Advance(3 * time.Millisecond)
	s.Eventf("e")
	if at := s.Events()[0].At; at != time.Unix(1, 503_000_000) {
		t.Fatalf("event at %v", at)
	}
	s.Finish()

	rt := New(Options{})
	before := time.Now()
	r := rt.StartRoot("op")
	after := time.Now()
	if r.Start().Before(before) || r.Start().After(after) {
		t.Fatalf("real-clock start %v outside [%v, %v]", r.Start(), before, after)
	}
	if r.Start().Round(0) == r.Start() {
		t.Fatal("real-clock start lost its monotonic reading")
	}
	r.Finish()
}

// The slow list must not keep an evicted root reachable.
func TestEvictedSlowRootIsCollectable(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	tr := New(Options{Clock: mc})
	collected := make(chan struct{})
	for i := 0; i <= slowSize; i++ {
		s := tr.StartRoot("slow")
		if i == 0 {
			runtime.SetFinalizer(s, func(*Span) { close(collected) })
		}
		mc.Advance(slowThreshold)
		s.Finish()
	}
	// Churn the ring too, so only the slow list could still hold the first.
	for i := 0; i < ringSize; i++ {
		tr.StartRoot("fast").Finish()
	}
	if got := len(tr.Recorder().SlowRoots()); got != slowSize {
		t.Fatalf("slow list holds %d, want %d", got, slowSize)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the root evicted from the slow list is still reachable")
}

// The slow list holds slow requests, not long connections: a slow statement
// on a connection that stays open is kept as soon as it finishes; a
// connection open a second whose statements are fast keeps nothing; a root
// with no children (an LSM flush) is its own request.
func TestSlowListHoldsRequests(t *testing.T) {
	tr, mc := newTestTracer(1)
	rec := tr.Recorder()
	conn := tr.StartRoot("proxy.conn")
	ex := conn.StartChild("proxy.exchange")
	_, exec := StartSpan(ContextWithSpan(context.Background(), ex), "sql.exec")
	mc.Advance(300 * time.Millisecond)
	exec.Finish()
	if n := len(rec.SlowRoots()); n != 0 {
		t.Fatalf("%d slow before the statement finished; a span below a request is not one", n)
	}
	ex.Finish()
	if slow := rec.SlowRoots(); len(slow) != 1 || slow[0] != ex {
		t.Fatalf("slow list after a 300ms statement = %v, want the statement", slow)
	}

	idle := tr.StartRoot("proxy.conn")
	for i := 0; i < 1000; i++ {
		s := idle.StartChild("proxy.exchange")
		mc.Advance(time.Millisecond)
		s.Finish()
	}
	idle.Finish()
	if slow := rec.SlowRoots(); len(slow) != 1 {
		t.Fatalf("a 1s connection of 1ms statements filed %d slow spans", len(slow)-1)
	}
	if recent := rec.RecentRoots(); recent[len(recent)-1] != idle {
		t.Fatal("the finished connection is not in the ring")
	}

	flush := tr.StartRoot("lsm.flush")
	mc.Advance(slowThreshold)
	flush.Finish()
	conn.Finish()
	if slow := rec.SlowRoots(); len(slow) != 2 || slow[1] != flush {
		t.Fatalf("slow list = %v, want the statement and the flush", slow)
	}
}

// A connection that served 10 000 statements keeps maxChildren of them, and
// a slow statement evicted from both the connection and the slow list can be
// collected. A statement and its children form a cycle (a child's context
// holds its parent), on which a finalizer never runs, so the finalizer is on
// a value only the statement holds.
func TestEvictedSlowStatementIsCollectable(t *testing.T) {
	tr, mc := newTestTracer(1)
	conn := tr.StartRoot("proxy.conn")
	collected := make(chan struct{})
	for i := 0; i <= slowSize; i++ {
		s := conn.StartChild("proxy.exchange")
		_, exec := StartSpan(ContextWithSpan(context.Background(), s), "sql.exec")
		if i == 0 {
			probe := &[64]byte{}
			runtime.SetFinalizer(probe, func(*[64]byte) { close(collected) })
			s.SetAttr("probe", probe)
		}
		mc.Advance(slowThreshold)
		exec.Finish()
		s.Finish()
	}
	for i := 0; i < 10000; i++ {
		statement := conn.StartChild("proxy.exchange")
		_, exec := StartSpan(ContextWithSpan(context.Background(), statement), "sql.exec")
		exec.Finish()
		statement.Finish()
	}
	if got := len(conn.Children()); got != maxChildren {
		t.Fatalf("connection holds %d statements, want %d", got, maxChildren)
	}
	if got := len(tr.Recorder().SlowRoots()); got != slowSize {
		t.Fatalf("slow list holds %d, want %d", got, slowSize)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			conn.Finish()
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the statement evicted from the connection and the slow list is still reachable")
}

// renderTree returns the detailed text rendering of one trace.
func renderTree(root *Span) string {
	var b strings.Builder
	writeSpanTree(&b, root, 0)
	return b.String()
}

// structureString renders a trace's deterministic skeleton — trace ID,
// span IDs, parent links, and operation names, with no timestamps or
// durations. Two same-seed runs must produce byte-identical structure
// strings for equivalent workloads.
func structureString(root *Span) string {
	var b strings.Builder
	writeStructure(&b, root, 0)
	return b.String()
}

func writeStructure(b *strings.Builder, s *Span, depth int) {
	fmt.Fprintf(b, "%s%016x/%016x %s\n", strings.Repeat("  ", depth), s.TraceID(), s.SpanID(), s.Op())
	for _, c := range s.Children() {
		writeStructure(b, c, depth+1)
	}
}
