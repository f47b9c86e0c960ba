// Package timeutil provides clock abstractions so that every component in the
// system can run against either real wall-clock time or a deterministic
// manually-advanced clock. Seeded experiments (kvscaling, fig8, fig10,
// fleetobs) and most unit tests run on ManualClock for reproducibility.
package timeutil

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts time for components that need to observe or wait on it.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// After returns a channel that receives the then-current time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// AfterFunc calls f once d has elapsed on this clock. The returned stop
	// cancels the call and reports whether it did; false means f has been
	// called or is being called.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// RealClock is a Clock backed by the system clock.
type RealClock struct{}

// NewRealClock returns a Clock that reads the system time.
func NewRealClock() RealClock { return RealClock{} }

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Since implements Clock.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock: f runs in its own goroutine.
func (RealClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// ManualClock is a Clock whose time only moves when Advance is called. Waiters
// registered via After/Sleep fire when the clock passes their deadline, and
// AfterFunc callbacks run inside the Advance that reaches theirs. It is safe
// for concurrent use.
type ManualClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	// seq numbers waiters in registration order, which breaks deadline ties.
	seq uint64
}

// NewManualClock returns a ManualClock initialized to start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements Clock.
func (c *ManualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// After implements Clock.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.pushLocked(&waiter{at: c.now.Add(d), ch: ch})
	return ch
}

// AfterFunc implements Clock. The Advance or AdvanceTo that reaches the
// deadline calls f on the advancing goroutine, outside the clock's lock,
// with Now reading the deadline; due callbacks run in deadline order, ties
// in registration order, so a run is deterministic. f must not wait on this
// clock: nothing advances it while f runs. A non-positive d runs f at the
// next Advance.
func (c *ManualClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &waiter{at: c.now.Add(max(d, 0)), f: f}
	c.pushLocked(w)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if w.index < 0 {
			return false
		}
		heap.Remove(&c.waiters, w.index)
		return true
	}
}

func (c *ManualClock) pushLocked(w *waiter) {
	c.seq++
	w.seq = c.seq
	heap.Push(&c.waiters, w)
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (c *ManualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-c.After(d)
}

// Advance moves the clock forward by d, firing the waiters and running the
// callbacks whose deadlines are reached.
func (c *ManualClock) Advance(d time.Duration) { c.advance(d, time.Time{}) }

// AdvanceTo moves the clock to t if t is later than the current time.
//
//lint:allow deadsurface roadmap: the virtual-time driver advances the clock to the next deadline
func (c *ManualClock) AdvanceTo(t time.Time) { c.advance(0, t) }

// advance moves the clock to target, or by d when target is zero. It stops
// at each due callback's deadline to run it: the waiters due by then fire
// first, with that time, then the callback runs unlocked. The rest fire with
// the clock at target.
func (c *ManualClock) advance(d time.Duration, target time.Time) {
	c.mu.Lock()
	if target.IsZero() {
		target = c.now.Add(d)
	}
	var fired []*waiter
	for c.waiters.Len() > 0 && !c.waiters[0].at.After(target) {
		w := heap.Pop(&c.waiters).(*waiter)
		if w.f == nil {
			fired = append(fired, w)
			continue
		}
		if w.at.After(c.now) {
			c.now = w.at
		}
		now := c.now
		c.mu.Unlock()
		for _, fw := range fired {
			fw.ch <- now
		}
		fired = fired[:0]
		w.f()
		c.mu.Lock()
	}
	if target.After(c.now) {
		c.now = target
	}
	now := c.now
	c.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// NumWaiters returns the number of pending waiters: goroutines blocked on
// this clock and callbacks not yet run. Useful for tests that step time
// until all waiters drain.
//
//lint:allow deadsurface roadmap: the virtual-time driver releases parked goroutines one at a time
func (c *ManualClock) NumWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiters.Len()
}

// NextDeadline returns the earliest pending waiter or callback deadline and
// true, or a zero time and false if there are none.
//
//lint:allow deadsurface roadmap: the virtual-time driver advances to the smallest pending deadline
func (c *ManualClock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters.Len() == 0 {
		return time.Time{}, false
	}
	return c.waiters[0].at, true
}

// waiter is a pending After (ch) or AfterFunc (f). index is its place in
// the heap, -1 once it has left it.
type waiter struct {
	at    time.Time
	seq   uint64
	ch    chan time.Time
	f     func()
	index int
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waiterHeap) Push(x interface{}) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}
