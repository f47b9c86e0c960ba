package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"crdbserverless/internal/metric"
)

// Recorder keeps the observable residue of finished traces: a bounded
// ring of recently finished root traces, a bounded list of slow traces
// force-retained past ring churn, and per-operation span-duration
// histograms for the /debug/tracez percentile table.
type Recorder struct {
	rootsRecorded *metric.Counter
	slowRetained  *metric.Counter

	mu struct {
		sync.Mutex
		ring     []*Span // ring buffer of finished roots
		ringNext int
		ringLen  int
		slow     []*Span // retained slow roots, oldest first
		perOp    map[string]*metric.Histogram
	}
}

const (
	// slowThreshold is the root-span duration at or above which a finished
	// trace is force-retained regardless of ring churn.
	slowThreshold = 250 * time.Millisecond
	// ringSize bounds the ring of recently finished root traces.
	ringSize = 64
	// slowSize bounds the list of retained slow traces (oldest evicted
	// first).
	slowSize = 32
)

func newRecorder() *Recorder {
	r := &Recorder{
		rootsRecorded: &metric.Counter{},
		slowRetained:  &metric.Counter{},
	}
	r.mu.ring = make([]*Span, ringSize)
	r.mu.perOp = map[string]*metric.Histogram{}
	return r
}

// spanFinished feeds every finished span into the per-op histograms and
// files finished roots into the ring (and the slow list when over
// threshold).
func (r *Recorder) spanFinished(s *Span, d time.Duration, isRoot bool) {
	r.mu.Lock()
	h := r.mu.perOp[s.op]
	if h == nil {
		h = metric.NewHistogram()
		r.mu.perOp[s.op] = h
	}
	if !isRoot {
		r.mu.Unlock()
		h.Record(d)
		return
	}
	r.mu.ring[r.mu.ringNext] = s
	r.mu.ringNext = (r.mu.ringNext + 1) % len(r.mu.ring)
	if r.mu.ringLen < len(r.mu.ring) {
		r.mu.ringLen++
	}
	if d >= slowThreshold {
		if len(r.mu.slow) == slowSize {
			// Shift down rather than reslice: slow[1:] would leave the
			// evicted root, and its whole tree, reachable through the
			// backing array.
			r.mu.slow = slices.Delete(r.mu.slow, 0, 1)
		}
		r.mu.slow = append(r.mu.slow, s)
		r.slowRetained.Inc(1)
	}
	r.mu.Unlock()
	h.Record(d)
	r.rootsRecorded.Inc(1)
}

// RecentRoots returns the finished root traces still in the ring,
// oldest first.
func (r *Recorder) RecentRoots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Span, 0, r.mu.ringLen)
	start := r.mu.ringNext - r.mu.ringLen
	for i := 0; i < r.mu.ringLen; i++ {
		out = append(out, r.mu.ring[(start+i+len(r.mu.ring))%len(r.mu.ring)])
	}
	return out
}

// SlowRoots returns the force-retained slow traces, oldest first.
func (r *Recorder) SlowRoots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.mu.slow...)
}

// OpNames returns every operation with at least one finished span, in
// sorted order.
func (r *Recorder) OpNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.mu.perOp))
	for op := range r.mu.perOp {
		names = append(names, op)
	}
	sort.Strings(names)
	return names
}

// OpSummary returns the duration summary for one operation.
func (r *Recorder) OpSummary(op string) metric.Summary {
	if r == nil {
		return metric.Summary{}
	}
	r.mu.Lock()
	h := r.mu.perOp[op]
	r.mu.Unlock()
	if h == nil {
		return metric.Summary{}
	}
	return h.Snapshot()
}

// WriteTracez renders the /debug/tracez text page: the per-operation
// span-duration percentile table, the retained slow traces, and the
// most recent finished traces.
func (r *Recorder) WriteTracez(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "tracez: tracing disabled\n")
		return err
	}
	var b strings.Builder
	b.WriteString("tracez — per-operation span durations\n")
	fmt.Fprintf(&b, "%-28s %8s %10s %10s %10s %10s\n", "OPERATION", "COUNT", "P50", "P95", "P99", "MAX")
	for _, op := range r.OpNames() {
		s := r.OpSummary(op)
		fmt.Fprintf(&b, "%-28s %8d %10v %10v %10v %10v\n", op, s.Count, s.P50, s.P95, s.P99, s.Max)
	}

	slow := r.SlowRoots()
	fmt.Fprintf(&b, "\nretained slow traces (threshold %v): %d\n", slowThreshold, len(slow))
	for _, root := range slow {
		b.WriteString("\n")
		writeSpanTree(&b, root, 0, true)
	}

	recent := r.RecentRoots()
	const maxRecent = 8
	if len(recent) > maxRecent {
		recent = recent[len(recent)-maxRecent:]
	}
	fmt.Fprintf(&b, "\nrecent traces (last %d of ring):\n", len(recent))
	for _, root := range recent {
		b.WriteString("\n")
		writeSpanTree(&b, root, 0, true)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSpanTree renders one span subtree, indented two spaces per
// level. With detail, events and attributes are included.
func writeSpanTree(b *strings.Builder, s *Span, depth int, detail bool) {
	indent := strings.Repeat("  ", depth)
	if depth == 0 {
		fmt.Fprintf(b, "%s=== trace %016x (%v)\n", indent, s.TraceID(), s.Duration())
	}
	fmt.Fprintf(b, "%s%s %v", indent, s.Op(), s.Duration())
	if detail {
		for _, a := range s.Attrs() {
			fmt.Fprintf(b, " %s=%v", a.Key, a.Value)
		}
	}
	b.WriteString("\n")
	if detail {
		for _, e := range s.Events() {
			fmt.Fprintf(b, "%s  · event: %s\n", indent, e.Msg)
		}
	}
	if n := s.DroppedChildren(); n > 0 {
		fmt.Fprintf(b, "%s  · %d earlier children dropped\n", indent, n)
	}
	for _, c := range s.Children() {
		writeSpanTree(b, c, depth+1, detail)
	}
}

// RenderTree returns the detailed text rendering of one trace.
func RenderTree(root *Span) string {
	var b strings.Builder
	writeSpanTree(&b, root, 0, true)
	return b.String()
}

// StructureString renders a trace's deterministic skeleton — trace ID,
// span IDs, parent links, and operation names, with no timestamps or
// durations. Two same-seed runs must produce byte-identical structure
// strings for equivalent workloads.
func StructureString(root *Span) string {
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
