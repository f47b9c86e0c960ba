package timeutil

import (
	"runtime"
	"slices"
	"sync"
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
// slots: the ones past the cap sleep on the runtime's timers, every one
// returns, and every slot is given back.
func TestSleepPreciseConcurrentPastCap(t *testing.T) {
	c := NewRealClock()
	var wg sync.WaitGroup
	for i := 0; i < preciseSleepers+8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				SleepPrecise(c, 200*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := len(preciseSlots); n != 0 {
		t.Fatalf("%d timer slots still held after every sleeper returned", n)
	}
}

func TestSleepPreciseDoesNotAllocate(t *testing.T) {
	c := NewRealClock()
	if allocs := testing.AllocsPerRun(100, func() { SleepPrecise(c, time.Microsecond) }); allocs != 0 {
		t.Fatalf("SleepPrecise allocates %.1f times, want 0", allocs)
	}
}
