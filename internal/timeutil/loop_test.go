package timeutil

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// On a manual clock a loop runs one round per period inside Advance, Tick
// runs one more without moving the schedule, and Stop ends the rounds.
func TestLoopOnManualClock(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewManualClock(start)
	var at []time.Duration
	l := Every(c, 100*time.Millisecond, func(context.Context) error {
		at = append(at, c.Since(start))
		return nil
	})
	c.Advance(250 * time.Millisecond)
	if err := l.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Advance(50 * time.Millisecond)
	l.Stop()
	c.Advance(time.Second)
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond, 300 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("rounds at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("rounds at %v, want %v", at, want)
		}
	}
	if c.NumWaiters() != 0 {
		t.Fatalf("a stopped loop left %d waiters", c.NumWaiters())
	}
}

// Tick returns the round's error.
func TestLoopTickReturnsError(t *testing.T) {
	boom := errors.New("boom")
	l := Every(NewManualClock(time.Unix(0, 0)), time.Second, func(context.Context) error { return boom })
	defer l.Stop()
	if err := l.Tick(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Tick = %v, want %v", err, boom)
	}
}

// A loop's rounds race Tick and Stop on both clocks: no two rounds overlap,
// and none runs after Stop returns. CI runs this under the race detector.
func TestLoopRoundsRaceTickAndStop(t *testing.T) {
	for _, name := range []string{"real", "manual"} {
		t.Run(name, func(t *testing.T) {
			clock, stopClock := runningClock(name)
			defer stopClock()
			for i := 0; i < 20; i++ {
				var inRound, rounds atomic.Int64
				var stopped atomic.Bool
				l := Every(clock, time.Microsecond, func(context.Context) error {
					if inRound.Add(1) != 1 {
						t.Error("two rounds overlap")
					}
					if stopped.Load() {
						t.Error("a round ran after Stop returned")
					}
					rounds.Add(1)
					inRound.Add(-1)
					return nil
				})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 50; j++ {
						_ = l.Tick(context.Background())
					}
				}()
				for rounds.Load() < 5 {
					time.Sleep(10 * time.Microsecond)
				}
				l.Stop()
				stopped.Store(true)
				wg.Wait()
			}
		})
	}
}
