package timeutil

import "time"

// preciseSleepers caps how many callers SleepPrecise serves at once. Each
// holds a kernel timer (an open file descriptor) for its sleep; callers past
// the cap sleep on the runtime's timers.
const preciseSleepers = 32

var preciseSlots = make(chan struct{}, preciseSleepers)

// SleepPrecise blocks until d has elapsed on c. On the real clock it wakes
// within the kernel's timer slack of d. time.Sleep does so only while another
// goroutine runs: in an otherwise idle process the runtime waits on its poller,
// whose timeout is in whole milliseconds, so a 0.5 ms sleep lasts 0.5 ms or
// about 1.1 ms depending on what else happens to be running. A caller that
// models a service time with its sleep wants the first. The caller parks as it
// would in time.Sleep: it holds no thread. On any other clock it is c.Sleep.
func SleepPrecise(c Clock, d time.Duration) {
	if _, ok := c.(RealClock); ok {
		select {
		case preciseSlots <- struct{}{}:
			sleepPrecise(d)
			<-preciseSlots
			return
		default:
		}
	}
	c.Sleep(d)
}
