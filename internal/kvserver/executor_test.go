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
			ex.run(t0, d)
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

// TestExecutorBookingStartsAtTaskStart books tasks that started before now,
// as a batch does from its latch grant, on one vCPU against a manual clock.
// The caller waits for the later of its work so far and its booking's end: a
// task whose work outran its cost returns at once, and one that started
// behind a busy vCPU starts when the vCPU falls idle and counts as queued
// until then. Busy time is the sum of the costs whatever the waits.
func TestExecutorBookingStartsAtTaskStart(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := timeutil.NewManualClock(now)
	ex := newExecutor(clock, 1)
	ex.accountOnly = false // queue for real on the manual clock
	ms := time.Millisecond
	run := func(start time.Time, d time.Duration) chan struct{} {
		done := make(chan struct{})
		go func() {
			ex.run(start, d)
			close(done)
		}()
		return done
	}
	finished := func(what string, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not finish", what)
		}
	}
	busy := func(want time.Duration) {
		t.Helper()
		if got := ex.busyTime(); got != want {
			t.Fatalf("busy time = %v, want %v", got, want)
		}
	}

	// Started 3 ms ago with a 5 ms cost: the caller is released 2 ms from now.
	first := run(now.Add(-3*ms), 5*ms)
	waitUntil(t, "first task to sleep", func() bool { return clock.NumWaiters() == 1 })
	if got := ex.queueDepth(); got != 0 {
		t.Fatalf("queue depth = %d, want 0 (the first task started 3 ms ago)", got)
	}
	// Started 1 ms ago behind the busy vCPU: it starts at the vCPU's free
	// time, 2 ms from now, and runs 4 ms from there.
	second := run(now.Add(-1*ms), 4*ms)
	waitUntil(t, "second task to sleep", func() bool { return clock.NumWaiters() == 2 })
	if got := ex.queueDepth(); got != 1 {
		t.Fatalf("queue depth = %d, want 1 (the second task waits for the vCPU)", got)
	}
	// The first caller sleeps to its finish in one sleep on the clock.
	clock.AdvanceTo(now.Add(1900 * time.Microsecond))
	if got := clock.NumWaiters(); got != 2 {
		t.Fatalf("%d callers sleep 100µs before the first booking ends, want 2", got)
	}
	select {
	case <-first:
		t.Fatal("first task finished 100µs before its booking ends")
	default:
	}
	clock.AdvanceTo(now.Add(2 * ms))
	finished("first task", first)
	busy(5 * ms)
	if got := ex.queueDepth(); got != 0 {
		t.Fatalf("queue depth = %d once the vCPU freed, want 0", got)
	}
	clock.AdvanceTo(now.Add(6 * ms))
	finished("second task", second)
	busy(9 * ms)

	// Started 3 ms ago on an idle vCPU with a 1 ms cost: the work outran the
	// booking, so the caller does not wait.
	now = now.Add(10 * ms)
	clock.AdvanceTo(now)
	third := run(now.Add(-3*ms), 1*ms)
	finished("third task", third)
	if got := clock.NumWaiters(); got != 0 {
		t.Fatalf("%d callers sleep, want 0 (the third task's booking ended 2 ms ago)", got)
	}
	busy(10 * ms)
}

// TestExecutorRunOnIdleVCPUDoesNotAllocate pins the executor's cost per batch
// on an idle node: booking and waiting allocate nothing.
func TestExecutorRunOnIdleVCPUDoesNotAllocate(t *testing.T) {
	clock := timeutil.NewRealClock()
	ex := newExecutor(clock, 2)
	if allocs := testing.AllocsPerRun(100, func() { ex.run(clock.Now(), 20*time.Microsecond) }); allocs != 0 {
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
