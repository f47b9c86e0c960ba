package metric

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 || s.Max != 0 || h.P50() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// TestHistogramBucketsOnDemand: a histogram holds buckets only up to the
// highest one recorded. The admission queues record a zero wait per tenant
// on every uncontended batch, and such a histogram holds one bucket.
func TestHistogramBucketsOnDemand(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Record(0)
	}
	if got := len(h.counts); got != 1 {
		t.Fatalf("zeros only: %d buckets, want 1", got)
	}
	h.Record(time.Millisecond)
	if got, want := len(h.counts), bucketFor(time.Millisecond)+1; got != want {
		t.Fatalf("after a 1ms sample: %d buckets, want %d", got, want)
	}
	h.Record(0)
	if got, want := len(h.counts), bucketFor(time.Millisecond)+1; got != want {
		t.Fatalf("a lower sample resized the buckets: %d, want %d", got, want)
	}
}

func TestHistogramExactQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if got := h.P50(); got < 49*time.Millisecond || got > 51*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", got)
	}
	if got := h.P99(); got < 98*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~99ms", got)
	}
	s := h.Snapshot()
	if got := s.Max; got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := s.Mean; got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
}

// TestHistogramZerosAreCounted: a zero is counted, not stored, so a stream of
// zero waits leaves the exact-sample reservoir empty.
func TestHistogramZerosAreCounted(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100_000; i++ {
		h.Record(0)
	}
	if len(h.samples) != 0 || cap(h.samples) != 0 {
		t.Fatalf("100000 zero Records left %d samples (cap %d), want none", len(h.samples), cap(h.samples))
	}
	if s := h.Snapshot(); s.Count != 100_000 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("snapshot of 100000 zeros = %v", s)
	}
}

// storedQuantiles is Quantile as it was when the reservoir stored zeros: the
// first sampleCap values, sorted, while they are all the values; the bucket
// interpolation after.
func storedQuantiles(h *Histogram, all []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(all) <= sampleCap {
		s := append([]time.Duration(nil), all...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for i, q := range qs {
			out[i] = s[int(q*float64(len(s)-1))]
		}
		return out
	}
	for i, q := range qs {
		target := uint64(q * float64(len(all)))
		var cum uint64
		out[i] = h.max
		for b, c := range h.counts {
			if cum += c; cum > target {
				out[i] = bucketUpper(b)
				break
			}
		}
	}
	return out
}

// TestHistogramZerosMatchStoredSamples: counting zeros changes no result. For
// streams mixing zeros with negative and positive values, below the
// reservoir's cap, at it and above it, every quantile and the snapshot are
// those of a reservoir that stored the zeros.
func TestHistogramZerosMatchStoredSamples(t *testing.T) {
	qs := []float64{0, 0.01, 0.25, 0.5, 0.7, 0.95, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 7, 1000, sampleCap, sampleCap + 1, 3 * sampleCap} {
		for _, zeroEvery := range []int{1, 2, 3, 10} {
			h := NewHistogram()
			var all []time.Duration
			for i := 0; i < n; i++ {
				d := time.Duration(i%997) * time.Microsecond
				switch {
				case i%zeroEvery == 0:
					d = 0
				case i%13 == 0:
					d = -d
				}
				h.Record(d)
				all = append(all, d)
			}
			want := storedQuantiles(h, all, qs...)
			for i, q := range qs {
				if got := h.Quantile(q); got != want[i] {
					t.Fatalf("n=%d, zero every %d: Quantile(%v) = %v, want %v", n, zeroEvery, q, got, want[i])
				}
			}
			s := h.Snapshot()
			if w := storedQuantiles(h, all, 0.50, 0.95, 0.99); s.P50 != w[0] || s.P95 != w[1] || s.P99 != w[2] || s.Count != uint64(n) {
				t.Fatalf("n=%d, zero every %d: snapshot %v, want p50 %v p95 %v p99 %v", n, zeroEvery, s, w[0], w[1], w[2])
			}
		}
	}
}

// TestHistogramDropsSamplesPastCap: past sampleCap values the quantiles are
// read from the buckets alone, so the reservoir is let go, not kept full.
func TestHistogramDropsSamplesPastCap(t *testing.T) {
	h := NewHistogram()
	var all []time.Duration
	for i := 0; i <= sampleCap; i++ {
		d := time.Duration(1+i%997) * time.Microsecond
		h.Record(d)
		all = append(all, d)
		if i == sampleCap-1 && len(h.samples) != sampleCap {
			t.Fatalf("at the cap the reservoir holds %d samples, want %d", len(h.samples), sampleCap)
		}
	}
	if len(h.samples) != 0 || cap(h.samples) != 0 {
		t.Fatalf("past the cap the reservoir holds %d samples (cap %d), want none", len(h.samples), cap(h.samples))
	}
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	want := storedQuantiles(h, all, qs...)
	for i, q := range qs {
		if got := h.Quantile(q); got != want[i] {
			t.Fatalf("Quantile(%v) = %v, want the bucket quantile %v", q, got, want[i])
		}
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	if got := h.Quantile(-1); got != 5*time.Millisecond {
		t.Fatalf("Quantile(-1) = %v", got)
	}
	if got := h.Quantile(2); got != 5*time.Millisecond {
		t.Fatalf("Quantile(2) = %v", got)
	}
}

func TestHistogramBucketFallback(t *testing.T) {
	h := NewHistogram()
	// Overflow the exact-sample reservoir to force bucket interpolation.
	for i := 0; i < sampleCap+1000; i++ {
		h.Record(time.Duration(1+i%100) * time.Millisecond)
	}
	p50 := h.P50()
	// Bucketed estimate should land within a factor of ~2 of the true 50ms.
	if p50 < 25*time.Millisecond || p50 > 110*time.Millisecond {
		t.Fatalf("bucketed p50 = %v, want within 2x of 50ms", p50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != 8000 {
		t.Fatalf("count = %d, want 8000", n)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: for any set of recorded values, Quantile is monotonic in q.
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(time.Duration(v) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if str := s.String(); str == "" {
		t.Fatal("empty summary string")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc(5)
	c.Inc(3)
	c.Inc(-1) // ignored
	if c.Value() != 8 {
		t.Fatalf("counter = %d, want 8", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(2.5)
	g.Add(1.5)
	if g.Value() != 4.0 {
		t.Fatalf("gauge = %f, want 4", g.Value())
	}
}
