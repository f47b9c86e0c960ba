// Positive cases for the locksafety check: missing unlocks, defer-Lock
// typos, and channel sends under a lock.
package locksafety

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func missingUnlock(c *counter) int {
	c.mu.Lock() // want locksafety
	return c.n
}

func deferTypo(c *counter) {
	c.mu.Lock()       // want locksafety
	defer c.mu.Lock() // want locksafety
	c.n++
}

func sendWhileLocked(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- c.n // want locksafety
}
