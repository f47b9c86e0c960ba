package kvserver

import (
	"runtime"
	"sync"
	"time"

	"crdbserverless/internal/timeutil"
)

// executor models a node's physical CPUs as a pool of vCPU workers consuming
// a task queue. Each task occupies one worker for its service duration, so
// when offered load exceeds capacity a queue builds — the overload condition
// admission control exists to manage (§5.1.1). The queue depth doubles as
// the "runnable goroutines" signal for the AIMD slot loop, and sustained
// deep queues make the node fail liveness (shedding its leases, as in the
// paper's no-limits baseline of Fig 12).
type executor struct {
	clock timeutil.Clock
	// accountOnly skips the blocking sleep and only records busy time.
	// Simulated-time deployments (manual clocks) use this: CPU cost is
	// modeled by accounting, and blocking workers on a manual clock would
	// require every control-plane caller to drive time through KV internals.
	accountOnly bool

	mu struct {
		sync.Mutex
		queued   int
		busyTime time.Duration // cumulative worker-busy time
		closed   bool
	}
	tasks chan task
	quit  chan struct{}
	wg    sync.WaitGroup
}

type task struct {
	dur  time.Duration
	done chan struct{}
}

// newExecutor starts vcpus workers. Service durations elapse on the given
// clock: with the real clock workers sleep; with a manual clock they block
// until the test advances time.
func newExecutor(clock timeutil.Clock, vcpus int) *executor {
	if vcpus <= 0 {
		vcpus = 1
	}
	_, manual := clock.(*timeutil.ManualClock)
	ex := &executor{
		clock:       clock,
		accountOnly: manual,
		tasks:       make(chan task, 1<<16),
		quit:        make(chan struct{}),
	}
	for i := 0; i < vcpus; i++ {
		ex.wg.Add(1)
		go ex.worker()
	}
	return ex
}

func (ex *executor) worker() {
	defer ex.wg.Done()
	for {
		select {
		case <-ex.quit:
			return
		case t := <-ex.tasks:
			ex.mu.Lock()
			ex.mu.queued--
			ex.mu.Unlock()
			if t.dur > 0 && !ex.accountOnly {
				ex.occupy(t.dur)
			}
			ex.mu.Lock()
			ex.mu.busyTime += t.dur
			ex.mu.Unlock()
			close(t.done)
		}
	}
}

// occupySpinTail is how much of each task's service time a worker burns by
// spinning rather than sleeping. Timer wake-ups under scheduler load overrun
// by up to a couple of milliseconds, and down a deep queue those overruns
// accumulate into the measured wait — a queue of ten 2ms tasks can read as
// 40ms instead of 20ms. Sleeping to within the tail and spinning the rest
// makes service time accurate to microseconds at a bounded CPU cost.
const occupySpinTail = 200 * time.Microsecond

// occupy holds the worker for dur of wall time: a sleep for the bulk, then a
// spin to the deadline.
func (ex *executor) occupy(dur time.Duration) {
	deadline := ex.clock.Now().Add(dur)
	if dur > occupySpinTail {
		ex.clock.Sleep(dur - occupySpinTail)
	}
	for ex.clock.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// run executes a task of the given service duration, blocking until a worker
// has completed it (or the executor shuts down).
func (ex *executor) run(dur time.Duration) {
	ex.mu.Lock()
	if ex.mu.closed {
		ex.mu.Unlock()
		return
	}
	ex.mu.queued++
	ex.mu.Unlock()
	t := task{dur: dur, done: make(chan struct{})}
	select {
	case ex.tasks <- t:
	case <-ex.quit:
		ex.mu.Lock()
		ex.mu.queued--
		ex.mu.Unlock()
		return
	}
	select {
	case <-t.done:
	case <-ex.quit:
	}
}

// queueDepth returns the number of tasks waiting for a worker — the
// runnable-queue length the AIMD loop samples.
func (ex *executor) queueDepth() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.mu.queued
}

// busyTime returns cumulative worker-busy time, for utilization accounting.
func (ex *executor) busyTime() time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.mu.busyTime
}

// close stops the executor. Queued tasks are abandoned; callers blocked in
// run return.
func (ex *executor) close() {
	ex.mu.Lock()
	if ex.mu.closed {
		ex.mu.Unlock()
		return
	}
	ex.mu.closed = true
	ex.mu.Unlock()
	close(ex.quit)
	ex.wg.Wait()
}
