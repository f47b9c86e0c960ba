//go:build !linux

package timeutil

import "time"

// sleepPrecise sleeps on the runtime's timers: the kernel timer it waits on
// elsewhere is Linux's.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
