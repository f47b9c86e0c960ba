package metric

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestWindowedTotalsAndRate(t *testing.T) {
	w := NewWindowed()
	base := time.Unix(1000, 0)
	// 10 observations in the current window, 5 in the previous one.
	for i := 0; i < 5; i++ {
		w.Observe(base.Add(-20*time.Second), 10*time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		w.Observe(base, 20*time.Millisecond, i == 0)
	}
	count, bad, sum := w.Totals(base, 15*time.Second)
	if count != 10 || bad != 1 {
		t.Fatalf("Totals(15s) = %d/%d, want 10/1", count, bad)
	}
	if sum != 200*time.Millisecond {
		t.Fatalf("sum = %v, want 200ms", sum)
	}
	count, _, _ = w.Totals(base, time.Minute)
	if count != 15 {
		t.Fatalf("Totals(1m) = %d, want 15", count)
	}
	if got := w.Rate(base, time.Minute); got != 15.0/60 {
		t.Fatalf("Rate = %v, want 0.25", got)
	}
}

func TestWindowedRingEviction(t *testing.T) {
	w := NewWindowed()
	base := time.Unix(2000, 0)
	w.Observe(base, time.Millisecond, false)
	// Advance by the full retention: the old window's slot is reused.
	later := base.Add(ringSpan)
	w.Observe(later, time.Millisecond, false)
	count, _, _ := w.Totals(later, ringSpan)
	if count != 1 {
		t.Fatalf("Totals after wrap = %d, want 1 (old window evicted)", count)
	}
}

func TestWindowedQuantile(t *testing.T) {
	w := NewWindowed()
	base := time.Unix(3000, 0)
	// 99 fast observations, 1 slow one: p50 small, p99.5 large.
	for i := 0; i < 99; i++ {
		w.Observe(base, 2*time.Millisecond, false)
	}
	w.Observe(base, 900*time.Millisecond, false)
	p50 := w.Quantile(base, time.Minute, 0.50)
	if p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want <= 4ms", p50)
	}
	p999 := w.Quantile(base, time.Minute, 0.999)
	if p999 < 500*time.Millisecond {
		t.Fatalf("p99.9 = %v, want >= 500ms", p999)
	}
	if got := w.Quantile(base.Add(time.Hour), time.Minute, 0.5); got != 0 {
		t.Fatalf("quantile over empty span = %v, want 0", got)
	}
}

func TestWindowedAlignmentDeterminism(t *testing.T) {
	// Two rings fed the same absolute timestamps report identical numbers:
	// windows are aligned to absolute time, not to first observation.
	run := func() (uint64, time.Duration) {
		w := NewWindowed()
		base := time.Unix(5000, 3)
		for i := 0; i < 100; i++ {
			w.Observe(base.Add(time.Duration(i)*time.Second), time.Duration(i)*time.Millisecond, i%7 == 0)
		}
		count, _, _ := w.Totals(base.Add(100*time.Second), 2*time.Minute)
		return count, w.Quantile(base.Add(100*time.Second), 2*time.Minute, 0.99)
	}
	c1, q1 := run()
	c2, q2 := run()
	if c1 != c2 || q1 != q2 {
		t.Fatalf("windowed results differ across identical runs: %d/%v vs %d/%v", c1, q1, c2, q2)
	}
}

// TestWindowedMatchesModel drives random observation sequences longer than
// an hour — several observations in one window, repeated timestamps, gaps
// longer than the ring, a few observations racing a window boundary — and
// checks every query against a brute-force model over the raw observations:
// a query at now sees each observation whose aligned window starts after
// now−span (span capped at the ring's hour) and not after now. The ring holds
// exactly the windows observed in the hour up to its newest.
func TestWindowedMatchesModel(t *testing.T) {
	type obs struct {
		at  time.Time
		lat time.Duration
		bad bool
	}
	spans := []time.Duration{5 * time.Minute, time.Hour, 2 * time.Hour}
	qs := []float64{0, 0.5, 0.9, 0.99, 1}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWindowed()
		var all []obs
		now := time.Unix(1_000_000+rng.Int63n(1_000_000), rng.Int63n(int64(time.Second)))
		first, newest := now, now
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 30: // the same timestamp again
			case r < 70:
				now = now.Add(time.Duration(rng.Int63n(int64(5 * time.Second))))
			case r < 90:
				now = now.Add(windowWidth + time.Duration(rng.Int63n(int64(5*time.Minute))))
			case r < 93:
				now = now.Add(ringSpan + time.Duration(rng.Int63n(int64(time.Hour))))
			case r < 95: // to the edge of the ring: one window short of it, or onto it
				now = newest.Add(ringSpan - windowWidth*time.Duration(rng.Intn(2)))
			default: // raced a window boundary: a little older than the newest
				now = newest.Add(-time.Duration(rng.Int63n(int64(3 * time.Second))))
			}
			if now.After(newest) {
				newest = now
			}
			o := obs{at: now, lat: time.Duration(rng.Int63n(int64(20 * time.Second))), bad: rng.Intn(10) == 0}
			if rng.Intn(2) == 0 {
				o.lat = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
			}
			w.Observe(o.at, o.lat, o.bad)
			all = append(all, o)

			// The ring holds one window per distinct start within the hour up
			// to the newest window.
			newestStart := newest.Truncate(windowWidth)
			starts := map[time.Time]bool{}
			for _, o := range all {
				if s := o.at.Truncate(windowWidth); s.After(newestStart.Add(-ringSpan)) {
					starts[s] = true
				}
			}
			if got := len(w.wins); got != len(starts) {
				t.Fatalf("seed %d step %d: ring holds %d windows, observed in %d", seed, step, got, len(starts))
			}

			at := newest
			switch rng.Intn(3) {
			case 1:
				at = at.Add(time.Duration(rng.Int63n(int64(10 * time.Minute))))
			case 2:
				at = at.Add(time.Duration(rng.Int63n(int64(2 * time.Hour))))
			}
			for _, span := range spans {
				capped := min(span, ringSpan)
				cutoff := at.Add(-capped).Truncate(windowWidth)
				var count, bad uint64
				var sum time.Duration
				var lats []time.Duration
				for _, o := range all {
					if s := o.at.Truncate(windowWidth); s.After(cutoff) && !s.After(at) {
						count++
						sum += o.lat
						lats = append(lats, o.lat)
						if o.bad {
							bad++
						}
					}
				}
				gc, gb, gs := w.Totals(at, span)
				if gc != count || gb != bad || gs != sum {
					t.Fatalf("seed %d step %d: Totals(%v) = %d/%d/%v, model %d/%d/%v", seed, step, span, gc, gb, gs, count, bad, sum)
				}
				if got, want := w.Rate(at, span), float64(count)/capped.Seconds(); got != want {
					t.Fatalf("seed %d step %d: Rate(%v) = %v, model %v", seed, step, span, got, want)
				}
				slices.Sort(lats)
				for _, q := range qs {
					// The quantile is the ladder bound of the observation at
					// rank q·count; past the last one, one step past the ladder.
					want := 2 * windowBounds[len(windowBounds)-1]
					if k := uint64(q * float64(count)); k < count {
						if b := windowBucketFor(lats[k]); b < len(windowBounds) {
							want = windowBounds[b]
						}
					}
					if count == 0 {
						want = 0
					}
					if got := w.Quantile(at, span, q); got != want {
						t.Fatalf("seed %d step %d: Quantile(%v, %v) = %v, model %v", seed, step, span, q, got, want)
					}
				}
			}
		}
		if newest.Sub(first) < 3*ringSpan {
			t.Fatalf("seed %d: the sequence covers %v, want several hours", seed, newest.Sub(first))
		}
	}
}

// Writers observe while the clock crosses window boundaries and ages
// windows out, and a reader queries beside them. For the race detector; at
// the end the ring is still the ascending windows of one hour.
func TestWindowedConcurrent(t *testing.T) {
	w := NewWindowed()
	base := time.Unix(7000, 0)
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				at := base.Add(2 * time.Hour)
				w.Totals(at, time.Hour)
				w.Quantile(at, 5*time.Minute, 0.99)
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Two hours over the run, so early windows age out.
				w.Observe(base.Add(time.Duration(i)*3600*time.Millisecond), time.Millisecond, false)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if len(w.wins) > windowCount {
		t.Fatalf("ring holds %d windows, more than %d", len(w.wins), windowCount)
	}
	newest := w.wins[len(w.wins)-1].start
	for i, s := range w.wins {
		if !s.start.After(newest.Add(-ringSpan)) || i > 0 && !s.start.After(w.wins[i-1].start) {
			t.Fatalf("window %d starts at %v: not ascending within the hour up to %v", i, s.start, newest)
		}
	}
}
