package metric

import (
	"slices"
	"sync"
	"time"
)

// This file implements a windowed in-memory time-series store: observations
// land in clock-aligned fixed-width windows, kept oldest first, so rate and
// quantile queries over "the last 5 minutes" or "the last hour" are cheap
// scans over a handful of windows and old data ages out without any
// background goroutine. Alignment (window start = now truncated to the
// width) makes same-seed simulated runs land every observation in the same
// window, which is what keeps /debug/tenantz byte-identical across runs.

// windowBounds is the coarse latency ladder used inside windows. It is much
// smaller than the Histogram bucket space because a window ring multiplies
// it by windows x series; 16 bounds from 250µs to 8s (x2 steps) is enough
// resolution for SLO-grade p99s.
var windowBounds = func() []time.Duration {
	bounds := make([]time.Duration, 0, 16)
	for d := 250 * time.Microsecond; d <= 8*time.Second; d *= 2 {
		bounds = append(bounds, d)
	}
	return bounds
}()

func windowBucketFor(d time.Duration) int {
	for i, b := range windowBounds {
		if d <= b {
			return i
		}
	}
	return len(windowBounds) // +Inf bucket
}

// window accumulates observations whose timestamps fall in
// [start, start+width).
type window struct {
	start   time.Time
	count   uint64
	bad     uint64
	sum     time.Duration
	buckets [17]uint64 // len(windowBounds)+1; last is +Inf
}

// windowWidth and windowCount retain one hour of 15-second windows — enough
// span for the 1h burn-rate window with 15s resolution for the 5m one.
const (
	windowWidth = 15 * time.Second
	windowCount = 240
	ringSpan    = windowWidth * windowCount
)

// Windowed holds the aligned windows that received an observation in the
// hour up to the newest one, oldest first: a tenant that ran once holds one
// window, a busy one at most windowCount. Safe for concurrent use.
type Windowed struct {
	mu   sync.Mutex
	wins []window // ascending start, all within ringSpan of the last
}

// NewWindowed returns an empty ring.
func NewWindowed() *Windowed { return &Windowed{} }

// windowFor returns the window covering t, adding it if no observation has
// landed in it yet, and then drops the windows a ring span or more older
// than the newest — nil if that is t's own. Caller must hold w.mu.
func (w *Windowed) windowFor(t time.Time) *window {
	start := t.Truncate(windowWidth)
	// Observations arrive in time order but for the few that raced a window
	// boundary, so the search starts at the newest window.
	i := len(w.wins)
	for i > 0 && w.wins[i-1].start.After(start) {
		i--
	}
	if i > 0 && w.wins[i-1].start.Equal(start) {
		return &w.wins[i-1]
	}
	w.wins = slices.Insert(w.wins, i, window{start: start})
	cutoff := w.wins[len(w.wins)-1].start.Add(-ringSpan)
	drop := 0
	for !w.wins[drop].start.After(cutoff) {
		drop++
	}
	w.wins = slices.Delete(w.wins, 0, drop)
	if i < drop {
		return nil
	}
	return &w.wins[i-drop]
}

// Observe records one observation at time now: its latency and whether it
// was bad (an error, or over-threshold — the caller decides).
func (w *Windowed) Observe(now time.Time, latency time.Duration, bad bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.windowFor(now)
	if s == nil {
		return
	}
	s.count++
	s.sum += latency
	s.buckets[windowBucketFor(latency)]++
	if bad {
		s.bad++
	}
}

// visit calls fn for every window in the trailing span ending at now: the
// window containing now plus the aligned windows after the cutoff. The
// cutoff itself is aligned (truncated to the width), so a window is either
// fully in or fully out — no partial-overlap double counting.
// Caller must hold w.mu.
func (w *Windowed) visit(now time.Time, span time.Duration, fn func(*window)) {
	if span > ringSpan {
		span = ringSpan
	}
	cutoffStart := now.Add(-span).Truncate(windowWidth)
	for i := range w.wins {
		if s := &w.wins[i]; s.start.After(cutoffStart) && !s.start.After(now) {
			fn(s)
		}
	}
}

// Totals returns the observation count, bad count, and latency sum over the
// trailing span ending at now.
func (w *Windowed) Totals(now time.Time, span time.Duration) (count, bad uint64, sum time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.visit(now, span, func(s *window) {
		count += s.count
		bad += s.bad
		sum += s.sum
	})
	return count, bad, sum
}

// Rate returns observations per second over the trailing span ending at now.
func (w *Windowed) Rate(now time.Time, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	if span > ringSpan {
		span = ringSpan
	}
	count, _, _ := w.Totals(now, span)
	return float64(count) / span.Seconds()
}

// Quantile returns the q-th latency quantile over the trailing span ending
// at now, interpolated from the coarse window ladder (the returned value is
// the upper bound of the bucket the quantile falls in).
func (w *Windowed) Quantile(now time.Time, span time.Duration, q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var merged [17]uint64
	var total uint64
	w.visit(now, span, func(s *window) {
		for i, c := range s.buckets {
			merged[i] += c
		}
		total += s.count
	})
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range merged {
		cum += c
		if cum > target {
			if i < len(windowBounds) {
				return windowBounds[i]
			}
			// +Inf bucket: report one step past the ladder.
			return 2 * windowBounds[len(windowBounds)-1]
		}
	}
	return 2 * windowBounds[len(windowBounds)-1]
}
