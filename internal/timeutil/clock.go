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

// ManualClock is a Clock whose time only moves when Advance is called. Waiters
// registered via After/Sleep fire when the clock passes their deadline. It is
// safe for concurrent use.
type ManualClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
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
	heap.Push(&c.waiters, &waiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (c *ManualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-c.After(d)
}

// Advance moves the clock forward by d, firing any waiters whose deadlines
// are reached.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	fired := c.popDueLocked()
	now := c.now
	c.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// AdvanceTo moves the clock to t if t is later than the current time.
//
//lint:allow deadsurface roadmap: the virtual-time driver advances the clock to the next deadline
func (c *ManualClock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	fired := c.popDueLocked()
	now := c.now
	c.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// NumWaiters returns the number of goroutines blocked on this clock. Useful
// for tests that step time until all waiters drain.
//
//lint:allow deadsurface roadmap: the virtual-time driver releases parked goroutines one at a time
func (c *ManualClock) NumWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiters.Len()
}

// NextDeadline returns the earliest pending waiter deadline and true, or a
// zero time and false if there are no waiters.
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

func (c *ManualClock) popDueLocked() []*waiter {
	var fired []*waiter
	for c.waiters.Len() > 0 && !c.waiters[0].at.After(c.now) {
		fired = append(fired, heap.Pop(&c.waiters).(*waiter))
	}
	return fired
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int            { return len(h) }
func (h waiterHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}
