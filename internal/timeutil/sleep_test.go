package timeutil

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSleepPreciseWakesAtItsDuration sleeps 300 µs in an otherwise idle
// process, where a runtime timer wakes at the next whole millisecond. The
// median of 21 sleeps must end well before that; a loaded host gets three
// tries.
func TestSleepPreciseWakesAtItsDuration(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the kernel timer is Linux's; elsewhere SleepPrecise is time.Sleep")
	}
	const d = 300 * time.Microsecond
	c := NewRealClock()
	var median time.Duration
	for try := 0; try < 3; try++ {
		var took []time.Duration
		for i := 0; i < 21; i++ {
			start := time.Now()
			SleepPrecise(c, d)
			got := time.Since(start)
			if got < d {
				t.Fatalf("SleepPrecise(%v) returned after %v", d, got)
			}
			took = append(took, got)
		}
		slices.Sort(took)
		if median = took[len(took)/2]; median < 800*time.Microsecond {
			return
		}
	}
	t.Fatalf("SleepPrecise(%v) took %v at the median, want under 800µs", d, median)
}

// TestSleepPreciseOnManualClock: on any clock but the real one it is the
// clock's Sleep, so it waits for Advance.
func TestSleepPreciseOnManualClock(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		SleepPrecise(c, time.Second)
		close(done)
	}()
	for c.NumWaiters() == 0 {
		runtime.Gosched()
	}
	select {
	case <-done:
		t.Fatal("SleepPrecise returned before the manual clock moved")
	default:
	}
	c.Advance(time.Second)
	<-done
}

// TestSleepPreciseConcurrentPastCap runs more sleepers than there are timer
// slots, each waiting long enough to park: the ones past the cap sleep on the
// runtime's timers, so fewer sleeps park than are made, every one returns,
// and every slot is given back.
func TestSleepPreciseConcurrentPastCap(t *testing.T) {
	var parks atomic.Int64
	defer func(p func(time.Duration)) { park = p }(park)
	park = func(d time.Duration) {
		parks.Add(1)
		sleepPrecise(d)
	}
	c := NewRealClock()
	const sleepers, rounds = preciseSleepers + 8, 5
	var wg sync.WaitGroup
	for i := 0; i < sleepers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				SleepPrecise(c, spinTail+time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := len(preciseSlots); n != 0 {
		t.Fatalf("%d timer slots still held after every sleeper returned", n)
	}
	if n := parks.Load(); n >= sleepers*rounds {
		t.Fatalf("all %d sleeps parked on a kernel timer, want some past the cap of %d", n, preciseSleepers)
	}
}

// TestSleepPreciseDoesNotAllocate waits past the tail, so each wait parks on a
// pooled kernel timer before it spins.
func TestSleepPreciseDoesNotAllocate(t *testing.T) {
	parks := 0
	defer func(p func(time.Duration)) { park = p }(park)
	park = func(d time.Duration) {
		parks++
		sleepPrecise(d)
	}
	c := NewRealClock()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { SleepPrecise(c, spinTail+100*time.Microsecond) }); allocs != 0 {
		t.Fatalf("SleepPrecise allocates %.1f times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up run.
	if parks != runs+1 {
		t.Fatalf("%d of %d waits parked on the timer, want all", parks, runs+1)
	}
}

// TestSleepPreciseInsideTheTail waits 10, 50 and 150 µs, each shorter than
// spinTail, so the whole wait is the spin. Every wait lasts at least d, the
// median of 21 ends within 50 µs of d, and none allocates. A loaded host gets
// three tries.
func TestSleepPreciseInsideTheTail(t *testing.T) {
	c := NewRealClock()
	for _, d := range []time.Duration{10 * time.Microsecond, 50 * time.Microsecond, 150 * time.Microsecond} {
		var median time.Duration
		for try := 0; try < 3; try++ {
			var took []time.Duration
			for i := 0; i < 21; i++ {
				start := time.Now()
				SleepPrecise(c, d)
				got := time.Since(start)
				if got < d {
					t.Fatalf("SleepPrecise(%v) returned after %v", d, got)
				}
				took = append(took, got)
			}
			slices.Sort(took)
			if median = took[len(took)/2]; median < d+50*time.Microsecond {
				break
			}
		}
		if median >= d+50*time.Microsecond {
			t.Fatalf("SleepPrecise(%v) took %v at the median, want under %v", d, median, d+50*time.Microsecond)
		}
		if allocs := testing.AllocsPerRun(20, func() { SleepPrecise(c, d) }); allocs != 0 {
			t.Fatalf("SleepPrecise(%v) allocates %.1f times, want 0", d, allocs)
		}
	}
}

// TestSleepPreciseParksPastTheTail counts the parks on the kernel timer: a
// wait longer than spinTail parks once, for all of it but the tail, and a
// wait inside the tail never parks.
func TestSleepPreciseParksPastTheTail(t *testing.T) {
	var parked []time.Duration
	defer func(p func(time.Duration)) { park = p }(park)
	park = func(d time.Duration) {
		parked = append(parked, d)
		sleepPrecise(d)
	}
	c := NewRealClock()
	const d = 2 * time.Millisecond
	start := time.Now()
	SleepPrecise(c, d)
	if got := time.Since(start); got < d {
		t.Fatalf("SleepPrecise(%v) returned after %v", d, got)
	}
	if len(parked) != 1 || parked[0] != d-spinTail {
		t.Fatalf("SleepPrecise(%v) parked for %v, want once for %v", d, parked, d-spinTail)
	}
	parked = nil
	SleepPrecise(c, spinTail-time.Microsecond)
	if len(parked) != 0 {
		t.Fatalf("SleepPrecise(%v) parked for %v, want only the spin", spinTail-time.Microsecond, parked)
	}
}
