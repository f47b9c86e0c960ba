package timeutil

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRealClockNow(t *testing.T) {
	c := NewRealClock()
	before := time.Now()
	now := c.Now()
	after := time.Now()
	if now.Before(before) || now.After(after) {
		t.Fatalf("real clock now %v outside [%v, %v]", now, before, after)
	}
}

func TestManualClockAdvance(t *testing.T) {
	start := time.Date(2025, 6, 22, 0, 0, 0, 0, time.UTC)
	c := NewManualClock(start)
	if got := c.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
	c.Advance(5 * time.Second)
	if got, want := c.Now(), start.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	if got, want := c.Since(start), 5*time.Second; got != want {
		t.Fatalf("Since = %v, want %v", got, want)
	}
}

func TestManualClockAfterFiresInOrder(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewManualClock(start)
	ch1 := c.After(1 * time.Second)
	ch2 := c.After(2 * time.Second)

	c.Advance(1 * time.Second)
	select {
	case <-ch1:
	default:
		t.Fatal("ch1 should have fired at +1s")
	}
	select {
	case <-ch2:
		t.Fatal("ch2 fired early")
	default:
	}

	c.Advance(1 * time.Second)
	select {
	case <-ch2:
	default:
		t.Fatal("ch2 should have fired at +2s")
	}
}

func TestManualClockAfterNonPositive(t *testing.T) {
	c := NewManualClock(time.Unix(100, 0))
	select {
	case <-c.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-c.After(-time.Second):
	case <-time.After(time.Second):
		t.Fatal("After(-1s) did not fire immediately")
	}
}

func TestManualClockSleepWakesOnAdvance(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		c.Sleep(3 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	for c.NumWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Advance(3 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not wake after Advance")
	}
}

func TestManualClockAdvanceTo(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewManualClock(start)
	target := start.Add(time.Minute)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo: Now() = %v, want %v", c.Now(), target)
	}
	// Moving backwards is a no-op.
	c.AdvanceTo(start)
	if !c.Now().Equal(target) {
		t.Fatalf("AdvanceTo backwards moved the clock to %v", c.Now())
	}
}

func TestManualClockNextDeadline(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline should report no waiters")
	}
	c.After(10 * time.Second)
	c.After(5 * time.Second)
	dl, ok := c.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline should report a waiter")
	}
	if want := time.Unix(5, 0); !dl.Equal(want) {
		t.Fatalf("NextDeadline = %v, want %v", dl, want)
	}
}

func TestManualClockConcurrentWaiters(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Sleep(time.Duration(i%10+1) * time.Second)
		}(i)
	}
	for c.NumWaiters() < n {
		time.Sleep(time.Millisecond)
	}
	c.Advance(10 * time.Second)
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("not all sleepers woke")
	}
}

// AfterFunc callbacks run inside the Advance that reaches them, in deadline
// order with ties in registration order, each reading its own deadline from
// Now. A callback that schedules another within the same Advance runs it
// there too, and waiters due before a callback have fired by the time it
// runs.
func TestManualClockAfterFuncOrder(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewManualClock(start)
	var got []string
	note := func(name string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%v", name, c.Since(start))) }
	}
	c.AfterFunc(2*time.Second, note("b"))
	c.AfterFunc(time.Second, note("a"))
	c.AfterFunc(2*time.Second, note("c"))
	c.AfterFunc(time.Second, func() {
		note("d")()
		c.AfterFunc(1500*time.Millisecond, note("e"))
	})
	ch := c.After(500 * time.Millisecond)
	c.AfterFunc(600*time.Millisecond, func() {
		select {
		case <-ch:
			got = append(got, "waiter fired")
		default:
			got = append(got, "waiter pending")
		}
	})
	c.Advance(3 * time.Second)
	want := "[waiter fired a@1s d@1s b@2s c@2s e@2.5s]"
	if fmt.Sprint(got) != want {
		t.Fatalf("callbacks ran as %v, want %s", got, want)
	}
	if now := c.Since(start); now != 3*time.Second {
		t.Fatalf("clock at %v after the advance, want 3s", now)
	}
	if c.NumWaiters() != 0 {
		t.Fatalf("%d waiters left", c.NumWaiters())
	}
}

// stop cancels a callback that has not run and reports it; once the
// callback has run, stop reports false.
func TestManualClockAfterFuncStop(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	ran := 0
	stopA := c.AfterFunc(time.Second, func() { ran++ })
	stopB := c.AfterFunc(time.Second, func() { ran += 10 })
	if !stopA() {
		t.Fatal("stop of a pending callback reported false")
	}
	if stopA() {
		t.Fatal("a second stop reported true")
	}
	c.Advance(time.Second)
	if ran != 10 {
		t.Fatalf("ran = %d, want only the unstopped callback (10)", ran)
	}
	if stopB() {
		t.Fatal("stop after the callback ran reported true")
	}
}

// runningClock returns a real clock, or a manual one that a goroutine of
// its own advances a microsecond at a time, and a func that stops it.
func runningClock(name string) (Clock, func()) {
	if name == "real" {
		return NewRealClock(), func() {}
	}
	m := NewManualClock(time.Unix(0, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.Advance(time.Microsecond)
			}
		}
	}()
	return m, func() { close(done); wg.Wait() }
}

// AfterFunc races its stop on both clocks: each callback runs exactly when
// its stop reports false. CI runs this under the race detector.
func TestAfterFuncRacesStop(t *testing.T) {
	for _, name := range []string{"real", "manual"} {
		t.Run(name, func(t *testing.T) {
			c, stopClock := runningClock(name)
			defer stopClock()
			const n = 200
			var ran sync.WaitGroup
			var mu sync.Mutex
			calls, missed := 0, 0
			for i := 0; i < n; i++ {
				ran.Add(1)
				stop := c.AfterFunc(time.Duration(i%3)*time.Microsecond, func() {
					mu.Lock()
					calls++
					mu.Unlock()
					ran.Done()
				})
				if stop() {
					ran.Done()
					missed++
				}
			}
			ran.Wait()
			if calls+missed != n {
				t.Fatalf("%d callbacks ran and %d were stopped, of %d", calls, missed, n)
			}
		})
	}
}
