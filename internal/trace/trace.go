// Package trace is a stdlib-only, deterministic tracing layer for the
// request path: proxy → SQL → txn → DistSender → KV → LSM.
//
// A Tracer mints spans whose trace/span IDs come from a seeded
// randutil RNG and whose timestamps come from a timeutil.Clock, so two
// runs of the simulator with the same seed produce byte-identical trace
// IDs and span structure. Spans nest parent→child, carry structured
// events and attributes, and — when the root finishes — land in a
// bounded in-memory Recorder that force-retains slow outliers (see
// recorder.go) and feeds the /debug/tracez renderer.
//
// All Span methods are safe on a nil receiver, so uninstrumented paths
// (no tracer configured, or no span in the context) pay only a nil
// check. The free StartSpan function starts a child of whatever span is
// in the context, which keeps deep layers (txn, DistSender, admission)
// free of any Tracer plumbing.
//
// Every statement is traced — the recorder cannot know a request was slow
// before its trace exists — so a span is priced for that: one allocation,
// which is also the context StartSpan returns, and no lock shared across
// the tracer beyond the ID stream's and the recorder's. DESIGN.md §7 has
// the cost contract.
package trace

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"crdbserverless/internal/metric"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/timeutil"
)

// Options configures a Tracer.
type Options struct {
	// Clock supplies span timestamps. Defaults to timeutil.RealClock.
	Clock timeutil.Clock
	// Seed seeds the trace/span ID stream. The default (0) is a fixed
	// seed, so even unconfigured tracers are reproducible.
	Seed int64
	// Metrics, when non-nil, receives the tracer's own counters
	// (trace.spans_started, trace.spans_finished, trace.roots_recorded,
	// trace.slow_retained).
	Metrics *metric.Registry
}

// Tracer mints and records spans. The zero value is not usable; use New.
// A nil *Tracer is a valid no-op tracer: every Start method returns a
// nil (no-op) span.
type Tracer struct {
	clock timeutil.Clock
	// epoch is the clock's reading when the tracer was made. A span keeps
	// its start as an offset from it, 16 bytes narrower than a time.Time;
	// epoch plus the offset is the reading the span started at, monotonic
	// part included.
	epoch    time.Time
	recorder *Recorder
	// ids is the ID stream seeded by Options.Seed. Every span draws its IDs
	// from it in creation order.
	ids *idStream

	spansStarted  *metric.Counter
	spansFinished *metric.Counter

	mu struct {
		sync.Mutex
		// live maps span ID → unfinished span, so a logically remote
		// layer (the SQL node, reached over the wire) can attach child
		// spans to the in-flight parent by ID alone. It holds only spans
		// whose ID can leave the process — those from StartRoot and
		// Span.StartChild — so a span started from a context, which is
		// most of them, never takes this lock.
		live map[uint64]*Span
	}
}

// idStream is a deterministic source of span IDs: spans started in the same
// order under the same seed get the same IDs.
type idStream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newIDStream(seed int64) *idStream {
	return &idStream{rng: randutil.NewRand(seed)}
}

// next returns a fresh nonzero ID.
func (ids *idStream) next() uint64 {
	ids.mu.Lock()
	defer ids.mu.Unlock()
	for {
		if id := ids.rng.Uint64(); id != 0 {
			return id
		}
	}
}

// New returns a Tracer.
func New(opts Options) *Tracer {
	if opts.Clock == nil {
		opts.Clock = timeutil.RealClock{}
	}
	t := &Tracer{
		clock:         opts.Clock,
		epoch:         opts.Clock.Now(),
		recorder:      newRecorder(),
		spansStarted:  &metric.Counter{},
		spansFinished: &metric.Counter{},
	}
	t.ids = newIDStream(opts.Seed)
	t.mu.live = map[uint64]*Span{}
	if opts.Metrics != nil {
		opts.Metrics.MustRegister("trace.spans_started", t.spansStarted)
		opts.Metrics.MustRegister("trace.spans_finished", t.spansFinished)
		opts.Metrics.MustRegister("trace.roots_recorded", t.recorder.rootsRecorded)
		opts.Metrics.MustRegister("trace.slow_retained", t.recorder.slowRetained)
	}
	return t
}

// Recorder returns the tracer's recorder of finished root traces.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.recorder
}

// Clock returns the clock span timestamps are drawn from.
func (t *Tracer) Clock() timeutil.Clock {
	if t == nil {
		return nil
	}
	return t.clock
}

// now returns the clock's reading as an offset from the tracer's epoch.
func (t *Tracer) now() time.Duration {
	return t.clock.Now().Sub(t.epoch)
}

// newSpan mints a span. ctx is the context the span derives from,
// context.Background for a span started without one. A live span is findable
// by ID (see Tracer.mu.live).
func (t *Tracer) newSpan(ctx context.Context, op string, traceID uint64, parent *Span, live bool) *Span {
	s := &Span{ctx: ctx, tracer: t, op: op, start: t.now()}
	switch {
	case parent == nil:
		s.mu.place = placeRoot
	case parent.mu.place == placeRoot:
		s.mu.place = placeTop
	}
	s.mu.live = live
	if traceID == 0 {
		traceID = t.ids.next()
	}
	s.traceID = traceID
	s.spanID = t.ids.next()
	if live {
		t.mu.Lock()
		t.mu.live[s.spanID] = s
		t.mu.Unlock()
	}
	if parent != nil {
		parent.addChild(s)
	}
	t.spansStarted.Inc(1)
	return s
}

// StartRoot starts a new root span — the head of a fresh trace. Used
// for entry points (a proxy connection) and background work (LSM
// flushes and compactions) that have no inbound context.
func (t *Tracer) StartRoot(op string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(context.Background(), op, 0, nil, true)
}

// StartRemote continues a trace whose parent span lives on the other
// side of a wire hop: the caller supplies the propagated trace and
// parent span IDs. If the parent is still in flight in this tracer the
// child is attached to it (the simulator's proxy and SQL pods share a
// process); otherwise the child is recorded as a detached root carrying
// the remote trace ID. Only a span from StartRoot or Span.StartChild can
// be such a parent.
func (t *Tracer) StartRemote(traceID, parentSpanID uint64, op string) *Span {
	if t == nil || traceID == 0 {
		return nil
	}
	t.mu.Lock()
	parent := t.mu.live[parentSpanID]
	t.mu.Unlock()
	return t.newSpan(context.Background(), op, traceID, parent, false)
}

// StartSpan starts a child of the span carried by ctx using that span's
// own tracer, or returns a no-op span when ctx carries none. This is
// the form deep layers use: no Tracer handle needed.
func StartSpan(ctx context.Context, op string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.newSpan(ctx, op, parent.traceID, parent, false)
	return s, s
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	// The context StartSpan returns is the span; anything derived from it
	// reaches Span.Value by the chain walk.
	if s, ok := ctx.(*Span); ok {
		return s
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Event is a timestamped structured annotation on a span.
type Event struct {
	At  time.Time
	Msg string
}

// Attr is a key/value attribute on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation in a trace. All methods are safe on a nil
// receiver (no-ops), so call sites never need to check whether tracing
// is enabled.
//
// A span is one allocation, because every statement of every tenant mints
// six: it is itself the context StartSpan returns (no context.WithValue
// node), its children are a list threaded through the children, and its
// first inlineAttrs attributes live in it. Its size is pinned by a test —
// a wider span trades allocations for bytes.
type Span struct {
	// ctx is the context the span was started from, to which the span's
	// context.Context methods defer for everything but the span itself.
	ctx     context.Context
	tracer  *Tracer
	traceID uint64
	spanID  uint64
	op      string
	// start is the span's start, as an offset from the tracer's epoch.
	start time.Duration
	// next is the sibling started after this one, guarded by the parent's mu.
	next *Span

	mu struct {
		sync.Mutex
		finished bool
		nattrs   uint8
		// place and live are set when the span is made and never change, so
		// they are read without the lock; they fill the padding before
		// dropped. live marks a span entered in Tracer.mu.live.
		place place
		live  bool
		// dropped counts finished children evicted to keep children at
		// maxChildren.
		dropped   int32
		nchildren int32
		// dur is end−start, set by Finish.
		dur time.Duration
		// first and last are the ends of the child list, in start order.
		first, last *Span
		attrs       [inlineAttrs]Attr
		more        *spanMore
	}
}

// place is where a span sits in its trace, which decides whether the
// recorder may keep it as a slow request (see Recorder.spanFinished).
type place uint8

const (
	placeInner place = iota // below a child of a root
	placeTop                // a child of a root: one request of a connection
	placeRoot               // no parent in this tracer
)

// inlineAttrs is how many attributes a span holds before it allocates a
// spanMore. Five of a statement's six spans set at most two.
const inlineAttrs = 2

// spanMore is what most spans never need — attributes past the inline ones,
// and events — allocated at the first of either.
type spanMore struct {
	attrs  []Attr
	events []event
}

// event is an Event not yet formatted: Eventf is on every transaction's
// path and its message is read only if someone looks at the trace. Only
// arguments that cannot change are kept (see Eventf), so formatting later
// gives what formatting at the call would have.
type event struct {
	at     time.Duration // since the span's start
	format string
	args   [3]any
	// nargs is how many of args the call passed, or rendered when format is
	// the finished message.
	nargs int8
}

const rendered = -1

func (e *event) msg() string {
	if e.nargs == rendered {
		return e.format
	}
	return fmt.Sprintf(e.format, e.args[:e.nargs]...)
}

// maxChildren caps the children a span keeps attached. A long-lived parent —
// a proxy connection's root, which gains a subtree per statement — would
// otherwise hold every one of them until it finishes; a slow statement
// outlives its eviction in the recorder's slow list.
const maxChildren = 32

// Deadline, Done, Err and Value make the span a context.Context: the one it
// was started from, plus itself under the package's key. Unlike the other
// methods they are not for a nil span, which StartSpan never returns as a
// context.
func (s *Span) Deadline() (time.Time, bool) { return s.ctx.Deadline() }

// Done is the started-from context's.
func (s *Span) Done() <-chan struct{} { return s.ctx.Done() }

// Err is the started-from context's.
func (s *Span) Err() error { return s.ctx.Err() }

// Value returns the span for the package's key and the started-from
// context's value for any other.
func (s *Span) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return s
	}
	return s.ctx.Value(key)
}

// Op returns the span's operation name.
func (s *Span) Op() string {
	if s == nil {
		return ""
	}
	return s.op
}

// TraceID returns the span's trace ID (0 for a no-op span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's ID (0 for a no-op span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.tracer.epoch.Add(s.start)
}

// Eventf records a timestamped structured event on the span. The message
// is formatted when Events is read, unless an argument could change in the
// meantime — anything holding a pointer: an error, a *T with a String
// method, a slice — or there are more than three; then it is formatted here.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	ev := event{at: s.tracer.now() - s.start, format: format}
	if len(args) <= len(ev.args) && immutable(args) {
		ev.nargs = int8(copy(ev.args[:], args))
	} else {
		ev.format, ev.nargs = fmt.Sprintf(format, args...), rendered
	}
	s.mu.Lock()
	m := s.mu.more
	if m == nil {
		b := &struct {
			spanMore
			buf [2]event
		}{}
		b.events = b.buf[:0]
		m = &b.spanMore
		s.mu.more = m
	}
	m.events = append(m.events, ev)
	s.mu.Unlock()
}

// immutable reports whether no argument holds a pointer through which its
// rendering could later change.
func immutable(args []any) bool {
	for _, a := range args {
		if a != nil && !pointerFree(reflect.ValueOf(a)) {
			return false
		}
	}
	return true
}

func pointerFree(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Struct: // hlc.Timestamp
		for i := 0; i < v.NumField(); i++ {
			if !pointerFree(v.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		return v.Len() == 0 || pointerFree(v.Index(0))
	}
	return false
}

// SetAttr sets a key/value attribute, overwriting any prior value for
// the key.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.attrLocked(key); a != nil {
		a.Value = value
		return
	}
	if s.mu.nattrs < inlineAttrs {
		s.mu.attrs[s.mu.nattrs] = Attr{Key: key, Value: value}
		s.mu.nattrs++
		return
	}
	m := s.mu.more
	if m == nil {
		b := &struct {
			spanMore
			buf [1]Attr // kv.eval sets three
		}{}
		b.attrs = b.buf[:0]
		m = &b.spanMore
		s.mu.more = m
	}
	m.attrs = append(m.attrs, Attr{Key: key, Value: value})
}

// attrLocked returns the attribute set for key, or nil.
func (s *Span) attrLocked(key string) *Attr {
	for i := range s.mu.attrs[:s.mu.nattrs] {
		if s.mu.attrs[i].Key == key {
			return &s.mu.attrs[i]
		}
	}
	if m := s.mu.more; m != nil {
		for i := range m.attrs {
			if m.attrs[i].Key == key {
				return &m.attrs[i]
			}
		}
	}
	return nil
}

// Attr returns the value for key and whether it is set.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.attrLocked(key); a != nil {
		return a.Value, true
	}
	return nil, false
}

// Attrs returns a copy of the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Attr(nil), s.mu.attrs[:s.mu.nattrs]...)
	if m := s.mu.more; m != nil {
		out = append(out, m.attrs...)
	}
	return out
}

// Events returns the span's events in record order.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var evs []event
	if m := s.mu.more; m != nil {
		evs = append(evs, m.events...)
	}
	s.mu.Unlock()
	if evs == nil {
		return nil
	}
	// Formatting calls the arguments' String methods, so not under the lock.
	out := make([]Event, len(evs))
	start := s.Start()
	for i := range evs {
		out[i] = Event{At: start.Add(evs[i].at), Msg: evs[i].msg()}
	}
	return out
}

// Children returns a copy of the span's child spans in start order: all of
// them up to maxChildren, beyond that the most recent (see DroppedChildren).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mu.first == nil {
		return nil
	}
	out := make([]*Span, 0, s.mu.nchildren)
	for c := s.mu.first; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// DroppedChildren returns how many finished children were evicted, oldest
// first, to keep the span at maxChildren.
func (s *Span) DroppedChildren() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.mu.dropped)
}

// Duration returns the span's duration: end−start once finished, and
// zero while still in flight.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mu.dur
}

// StartChild starts a child span without going through a context —
// used where a span handle is held directly (e.g. proxy connection
// migration, which runs outside any request context). The child's ID may
// leave the process (the proxy stamps it on the frame it forwards), so
// StartRemote can find it.
func (s *Span) StartChild(op string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(context.Background(), op, s.traceID, s, true)
}

// addChild attaches c. At maxChildren it first evicts the oldest finished
// children to make room; a child still in flight is never evicted, so a span
// with that many concurrent children grows past the cap until they finish.
func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The oldest child is almost always finished, so this unlinks the head
	// and stops.
	var prev *Span
	for old := s.mu.first; old != nil && s.mu.nchildren >= maxChildren; {
		next := old.next
		if old.isFinished() {
			if prev == nil {
				s.mu.first = next
			} else {
				prev.next = next
			}
			if next == nil {
				s.mu.last = prev
			}
			old.next = nil
			s.mu.nchildren--
			s.mu.dropped++
		} else {
			prev = old
		}
		old = next
	}
	if s.mu.last == nil {
		s.mu.first = c
	} else {
		s.mu.last.next = c
	}
	s.mu.last = c
	s.mu.nchildren++
}

func (s *Span) isFinished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mu.finished
}

// hasChildren reports whether the span has had a child, kept or dropped.
func (s *Span) hasChildren() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mu.first != nil || s.mu.dropped > 0
}

// Finish ends the span. Finishing a root span hands the whole trace to
// the tracer's recorder, and finishing a slow request hands its subtree
// (see Recorder.spanFinished); every finish feeds the per-operation
// duration histograms behind /debug/tracez. Finish is idempotent.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	t := s.tracer
	d := t.now() - s.start
	s.mu.Lock()
	if s.mu.finished {
		s.mu.Unlock()
		return
	}
	s.mu.finished = true
	s.mu.dur = d
	s.mu.Unlock()

	if s.mu.live {
		t.mu.Lock()
		delete(t.mu.live, s.spanID)
		t.mu.Unlock()
	}
	t.spansFinished.Inc(1)
	t.recorder.spanFinished(s, d)
}
