package timeutil

import "time"

// preciseSleepers caps how many callers SleepPrecise serves at once. Each
// holds a kernel timer (an open file descriptor) for its sleep; callers past
// the cap sleep on the runtime's timers.
const preciseSleepers = 32

var preciseSlots = make(chan struct{}, preciseSleepers)

// spinTail is how much of each wait SleepPrecise spins rather than sleeps.
// Most modelled service times are under it (a point read's whole modelled CPU
// is 37µs), which is below what a timer wake-up resolves. Each round of the
// spin yields the thread's core as well as the goroutine's processor: a
// thread that only yields its processor stays runnable on its core, and with
// every core held that way a thread the poller wakes to serve a connection
// waits for the kernel's next scheduler tick (4 ms at HZ=250).
const spinTail = 200 * time.Microsecond

// park sleeps on a pooled kernel timer; tests swap it to count the parks.
var park = sleepPrecise

// SleepPrecise blocks until d has elapsed on c. On the real clock it parks on
// a kernel timer for all but the last spinTail, as it would in time.Sleep,
// holding no thread, and spins the rest, yielding each round. It wakes within
// a few microseconds of d while its core is free; a yield that finds another
// runnable thread of the process hands that thread the core, and the wait can
// then end tens, now and then hundreds, of microseconds late. time.Sleep
// alone wakes on time only while another goroutine runs: in an otherwise idle
// process the runtime waits on its poller, whose timeout is in whole
// milliseconds, so a 0.5 ms sleep lasts 0.5 ms or about 1.1 ms depending on
// what else happens to be running. A caller that models a service time with
// its sleep wants the first. On any other clock it is c.Sleep.
func SleepPrecise(c Clock, d time.Duration) {
	if _, ok := c.(RealClock); !ok {
		c.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	if d -= spinTail; d > 0 {
		select {
		case preciseSlots <- struct{}{}:
			park(d)
			<-preciseSlots
		default:
			time.Sleep(d)
		}
	}
	for time.Now().Before(deadline) {
		yield()
	}
}
