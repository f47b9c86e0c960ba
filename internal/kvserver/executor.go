package kvserver

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"crdbserverless/internal/timeutil"
)

// executor models a node's physical CPUs as a calendar: for each vCPU, the
// time it next falls idle. A task books the earliest-free vCPU from the later
// of now and that time, for its service duration, and its caller waits until
// the booking ends. When offered load exceeds capacity the bookings run ahead
// of the clock and a queue builds — the overload condition admission control
// exists to manage (§5.1.1). The number of bookings not yet started doubles as
// the "runnable goroutines" signal for the AIMD slot loop, and sustained deep
// queues make the node fail liveness (shedding its leases, as in the paper's
// no-limits baseline of Fig 12).
type executor struct {
	clock timeutil.Clock
	// accountOnly skips the booking and the wait and only records busy time.
	// Simulated-time deployments (manual clocks) use this: CPU cost is
	// modeled by accounting, and blocking callers on a manual clock would
	// require every control-plane caller to drive time through KV internals.
	accountOnly bool

	mu struct {
		sync.Mutex
		// free holds, per vCPU, the time that vCPU next falls idle.
		free []time.Time
		// starts holds the start times of the bookings that have not started
		// yet, in booking order. Starts never decrease, so the bookings that
		// have started are always a prefix.
		starts   []time.Time
		busyTime time.Duration // cumulative vCPU-busy time of finished tasks
	}
}

// newExecutor returns a calendar of vcpus idle vCPUs. Service durations
// elapse on the given clock: with the real clock callers sleep; with a manual
// clock the executor only accounts.
func newExecutor(clock timeutil.Clock, vcpus int) *executor {
	if vcpus <= 0 {
		vcpus = 1
	}
	_, manual := clock.(*timeutil.ManualClock)
	ex := &executor{clock: clock, accountOnly: manual}
	ex.mu.free = make([]time.Time, vcpus)
	return ex
}

// run executes a task of the given service duration, blocking until it has
// finished. Tasks start in the order they are booked, each on the vCPU that
// falls idle first.
func (ex *executor) run(dur time.Duration) {
	if !ex.accountOnly {
		ex.occupy(ex.book(dur))
	}
	ex.mu.Lock()
	ex.mu.busyTime += dur
	ex.mu.Unlock()
}

// book reserves the earliest-free vCPU for dur and returns the time the task
// finishes.
func (ex *executor) book(dur time.Duration) time.Time {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	now := ex.clock.Now()
	ex.pruneLocked(now)
	i := 0
	for j, f := range ex.mu.free {
		if f.Before(ex.mu.free[i]) {
			i = j
		}
	}
	start := ex.mu.free[i]
	if start.Before(now) {
		start = now
	} else if start.After(now) {
		ex.mu.starts = append(ex.mu.starts, start)
	}
	ex.mu.free[i] = start.Add(dur)
	return ex.mu.free[i]
}

// pruneLocked drops the bookings that have started by now.
func (ex *executor) pruneLocked(now time.Time) {
	n := 0
	for n < len(ex.mu.starts) && !ex.mu.starts[n].After(now) {
		n++
	}
	ex.mu.starts = slices.Delete(ex.mu.starts, 0, n)
}

// occupySpinTail is how much of each wait the caller spins rather than
// sleeps. Most service times are under 200µs — a point read's whole
// modelled CPU is 37µs — which is below what a timer wake-up resolves.
const occupySpinTail = 200 * time.Microsecond

// occupy holds the caller until deadline: a sleep for the bulk, then a spin.
func (ex *executor) occupy(deadline time.Time) {
	if d := deadline.Sub(ex.clock.Now()) - occupySpinTail; d > 0 {
		ex.clock.Sleep(d)
	}
	for ex.clock.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// queueDepth returns the number of booked tasks that have not started — the
// runnable-queue length the AIMD loop samples.
func (ex *executor) queueDepth() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.pruneLocked(ex.clock.Now())
	return len(ex.mu.starts)
}

// busyTime returns cumulative vCPU-busy time, for utilization accounting.
func (ex *executor) busyTime() time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.mu.busyTime
}
