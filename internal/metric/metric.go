// Package metric implements the lightweight metrics primitives the system
// needs: latency histograms with percentile extraction, counters, gauges, and
// windowed time series. The autoscaler's 5-minute average/peak CPU inputs
// (§4.2.3 of the paper) and every latency table in the evaluation are
// computed with these types.
package metric

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations into exponential buckets and reports
// percentiles. It is safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64 // up to the highest bucket recorded
	total  uint64
	sum    time.Duration
	max    time.Duration
	// The exact-sample reservoir: every value while there are at most
	// sampleCap, for precise quantiles, and nothing once there are more.
	// Zeros are counted rather than stored, so a stream of them (an
	// uncontended admission wait on every batch) costs no memory.
	samples []time.Duration // the non-zero values
	zeros   uint64
}

// sampleCap bounds the exact-sample reservoir. Up to the cap percentiles are
// exact; past it they are read from the buckets alone, so the reservoir is
// dropped. No experiment's histogram reaches it; a long-lived one (a trace
// operation's, a tenant's latency) passes it and then holds only buckets.
const sampleCap = 1 << 12

// numBuckets covers 1ns..~18h with ~4 buckets per doubling.
const numBuckets = 64 * 4

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	// 4 sub-buckets per power of two.
	f := math.Log2(float64(d)) * 4
	b := int(f)
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

func bucketUpper(b int) time.Duration {
	return time.Duration(math.Pow(2, float64(b+1)/4))
}

// Record adds a single duration observation.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := bucketFor(d)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	switch {
	case h.total > sampleCap:
		h.samples = nil // past the cap only the buckets are read
	case d == 0:
		h.zeros++
	default:
		h.samples = append(h.samples, d)
	}
}

// Quantile returns the q-th quantile (q in [0,1]) of the recorded values.
// While the reservoir holds every sample the result is exact; afterwards it
// is interpolated from bucket boundaries.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantilesLocked(q)[0]
}

// quantilesLocked computes several quantiles with a single pass (and, on
// the exact-sample path, a single sort). Caller must hold h.mu.
func (h *Histogram) quantilesLocked(qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if h.total == 0 {
		return out
	}
	for i, q := range qs {
		if q < 0 {
			qs[i] = 0
		}
		if q > 1 {
			qs[i] = 1
		}
	}
	if h.total <= sampleCap {
		// The sorted reservoir is the negative samples, the zeros, then the
		// positive samples.
		s := append([]time.Duration(nil), h.samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		neg := sort.Search(len(s), func(i int) bool { return s[i] > 0 })
		zeros := int(h.zeros)
		for i, q := range qs {
			switch at := int(q * float64(len(s)+zeros-1)); {
			case at < neg:
				out[i] = s[at]
			case at < neg+zeros:
				out[i] = 0
			default:
				out[i] = s[at-zeros]
			}
		}
		return out
	}
	for i, q := range qs {
		target := uint64(q * float64(h.total))
		var cum uint64
		v := h.max
		for b, c := range h.counts {
			cum += c
			if cum > target {
				v = bucketUpper(b)
				break
			}
		}
		out[i] = v
	}
	return out
}

// P50 is shorthand for Quantile(0.50).
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Snapshot returns a point-in-time summary of the histogram. The whole
// summary is computed under a single acquisition of the lock, so it is
// internally consistent even under concurrent Record calls.
func (h *Histogram) Snapshot() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	var mean time.Duration
	if h.total > 0 {
		mean = h.sum / time.Duration(h.total)
	}
	quants := h.quantilesLocked(0.50, 0.95, 0.99)
	return Summary{
		Count:   h.total,
		Sum:     h.sum,
		Mean:    mean,
		P50:     quants[0],
		P95:     quants[1],
		P99:     quants[2],
		Max:     h.max,
		Buckets: h.cumulativeBucketsLocked(),
	}
}

// ExpositionBounds is the fixed upper-bound ladder histograms are folded
// onto for Prometheus `_bucket{le=...}` exposition. Coarser than the
// internal bucket space on purpose: scrape output stays small and the
// ladder is identical for every histogram, so recording rules can
// aggregate across them.
var ExpositionBounds = []time.Duration{
	time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
	64 * time.Millisecond,
	256 * time.Millisecond,
	time.Second,
	4 * time.Second,
	16 * time.Second,
}

// cumulativeBucketsLocked folds the internal exponential buckets onto
// ExpositionBounds, returning the cumulative count at or under each bound.
// Caller must hold h.mu.
func (h *Histogram) cumulativeBucketsLocked() []BucketCount {
	out := make([]BucketCount, len(ExpositionBounds))
	var cum uint64
	b := 0
	for i, bound := range ExpositionBounds {
		for b < len(h.counts) && bucketUpper(b) <= bound {
			cum += h.counts[b]
			b++
		}
		out[i] = BucketCount{UpperBound: bound, Count: cum}
	}
	return out
}

// BucketCount is one cumulative histogram bucket: the number of
// observations at or under UpperBound.
type BucketCount struct {
	UpperBound time.Duration
	Count      uint64
}

// Summary is a point-in-time latency summary.
type Summary struct {
	Count uint64
	Sum   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Buckets holds cumulative counts on the ExpositionBounds ladder; the
	// implicit +Inf bucket equals Count.
	Buckets []BucketCount
}

// String renders the summary in a compact table-friendly form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Counter is a monotonically increasing counter safe for concurrent use.
// It sits on the per-request hot path (every span start/finish bumps
// one), so it is lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds delta (which must be non-negative) to the counter.
func (c *Counter) Inc(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// Gauge is a concurrent float64 gauge, stored lock-free as IEEE-754
// bits.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}
