package timeutil

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestTimerfdSleepLeavesNothingPending sleeps while every processor is kept
// busy, where the read deadline tends to fire before the poller reports the
// timer, and on an idle process, where the timer wins. Either way the sleep
// lasts at least d and leaves the timer with no expiry for the next sleep to
// read as its own.
func TestTimerfdSleepLeavesNothingPending(t *testing.T) {
	tf, err := newTimerfd()
	if err != nil {
		t.Fatal(err)
	}
	defer tf.f.Close()
	const d = 200 * time.Microsecond
	check := func(what string) {
		t.Helper()
		for i := 0; i < 50; i++ {
			start := time.Now()
			if err := tf.sleep(d); err != nil {
				t.Fatalf("%s: sleep: %v", what, err)
			}
			if got := time.Since(start); got < d {
				t.Fatalf("%s: sleep(%v) returned after %v", what, d, got)
			}
			// Longer than the sleep: an expiry still on its way would land.
			time.Sleep(2 * d)
			if _, err := syscall.Read(tf.fd, tf.buf[:]); err != syscall.EAGAIN {
				t.Fatalf("%s: timer read after a sleep = %v, want EAGAIN", what, err)
			}
		}
	}
	check("idle")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	check("busy")
}
