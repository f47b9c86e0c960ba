package timeutil

import (
	"context"
	"sync"
	"time"
)

// Loop runs a round every period on a clock, from Every until Stop. Rounds
// never overlap: each runs under the loop's lock, which Tick takes too, and
// the next is scheduled only when one ends, so a slow round delays the next
// instead of queueing behind it. A round must not wait on the loop's clock:
// on a ManualClock it runs inside the Advance that reaches it, so the wait
// would never end.
type Loop struct {
	clock  Clock
	period time.Duration
	round  func(context.Context) error

	mu      sync.Mutex // held for a round
	stopped bool
	cancel  func() bool // cancels the scheduled round
	// pending counts the scheduled round until it has run or been
	// cancelled, so Stop can wait for a round its cancel came too late for.
	pending sync.WaitGroup
}

// Every starts a Loop whose first round runs one period from now. A round
// the loop runs itself has no one to return its error to: round reports
// its own failures, and Tick returns them as well.
func Every(c Clock, period time.Duration, round func(context.Context) error) *Loop {
	l := &Loop{clock: c, period: period, round: round}
	l.mu.Lock()
	l.scheduleLocked()
	l.mu.Unlock()
	return l
}

func (l *Loop) scheduleLocked() {
	l.pending.Add(1)
	l.cancel = l.clock.AfterFunc(l.period, l.fire)
}

func (l *Loop) fire() {
	defer l.pending.Done()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	_ = l.round(context.Background())
	l.scheduleLocked()
}

// Tick runs one round now, between the loop's own, and returns its error.
// The schedule does not move. After Stop it does nothing.
func (l *Loop) Tick(ctx context.Context) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return nil
	}
	return l.round(ctx)
}

// Stop cancels the scheduled round and waits for a running one: no round
// starts after Stop returns.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopped = true
	if l.cancel() {
		l.pending.Done()
	}
	l.mu.Unlock()
	l.pending.Wait()
}
