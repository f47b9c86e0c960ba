//go:build !linux

package timeutil

import (
	"runtime"
	"time"
)

// sleepPrecise sleeps on the runtime's timers: the kernel timer it waits on
// elsewhere is Linux's.
func sleepPrecise(d time.Duration) { time.Sleep(d) }

// yield gives up the goroutine's processor only: the thread's is Linux's.
func yield() { runtime.Gosched() }
