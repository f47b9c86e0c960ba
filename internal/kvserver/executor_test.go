package kvserver

import (
	"runtime"
	"testing"
	"time"

	"crdbserverless/internal/timeutil"
)

// waitUntil polls cond for up to 5s of wall time.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestExecutorCalendarIsFIFOMG2 books five tasks on two vCPUs against a
// manual clock and steps the clock from one finish to the next. Tasks start
// in booking order on whichever vCPU falls idle first, so the long second
// task lets the short ones behind it overtake it on the other vCPU.
func TestExecutorCalendarIsFIFOMG2(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clock := timeutil.NewManualClock(t0)
	ex := newExecutor(clock, 2)
	ex.accountOnly = false // queue for real on the manual clock
	ms := time.Millisecond
	durs := []time.Duration{1 * ms, 5 * ms, 1 * ms, 1 * ms, 3 * ms}
	// vCPU A runs 0, 2, 3, 4 back to back from t0; vCPU B runs 1.
	done := make(chan int, len(durs))
	for i, d := range durs {
		go func() {
			ex.run(d)
			done <- i
		}()
		// Each caller books, then sleeps on the clock until near its finish.
		waitUntil(t, "task to book", func() bool { return clock.NumWaiters() == i+1 })
	}
	if got := ex.queueDepth(); got != 3 {
		t.Fatalf("queue depth at t0 = %d, want 3 (tasks 2, 3, 4 start later)", got)
	}
	steps := []struct {
		at       time.Duration
		finishes int
		depth    int
	}{
		{1 * ms, 0, 2},
		{2 * ms, 2, 1},
		{3 * ms, 3, 0},
		{5 * ms, 1, 0},
		{6 * ms, 4, 0},
	}
	for n, s := range steps {
		clock.AdvanceTo(t0.Add(s.at))
		select {
		case got := <-done:
			if got != s.finishes {
				t.Fatalf("at %v task %d finished, want task %d", s.at, got, s.finishes)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("at %v no task finished, want task %d", s.at, s.finishes)
		}
		if got, want := clock.NumWaiters(), len(durs)-n-1; got != want {
			t.Fatalf("at %v %d callers still wait, want %d", s.at, got, want)
		}
		if got := ex.queueDepth(); got != s.depth {
			t.Fatalf("queue depth at %v = %d, want %d", s.at, got, s.depth)
		}
	}
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	if got := ex.busyTime(); got != sum {
		t.Fatalf("busy time = %v, want %v", got, sum)
	}
}

// TestExecutorRunOnIdleVCPUDoesNotAllocate pins the executor's cost per batch
// on an idle node: booking and waiting allocate nothing.
func TestExecutorRunOnIdleVCPUDoesNotAllocate(t *testing.T) {
	ex := newExecutor(timeutil.NewRealClock(), 2)
	if allocs := testing.AllocsPerRun(100, func() { ex.run(20 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("run on an idle vCPU allocates %.1f times, want 0", allocs)
	}
}

// TestNewNodeStartsNoGoroutine checks that a node's vCPUs are a calendar, not
// a pool of workers.
func TestNewNodeStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n := NewNode(NodeConfig{ID: 1, VCPUs: 8})
	defer n.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewNode started %d goroutines", after-before)
	}
}
