// Negative cases for the locksafety check: conventional lock hygiene must
// pass untouched.
package locksafety

import "sync"

type gauge struct {
	mu sync.Mutex
	v  int
}

type table struct {
	mu sync.RWMutex
	m  map[string]int
}

func (g *gauge) set(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
}

func (g *gauge) inline(v int) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

func (t *table) get(k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

// unlockInClosure releases via a deferred closure; the whole-body tally
// still sees the Unlock.
func unlockInClosure(g *gauge) {
	g.mu.Lock()
	defer func() {
		g.mu.Unlock()
	}()
	g.v++
}

// localChanSend sends on a freshly made function-local channel while locked;
// a buffered local channel cannot deadlock against the lock's other users.
func localChanSend(g *gauge) int {
	done := make(chan int, 1)
	g.mu.Lock()
	done <- g.v
	g.mu.Unlock()
	return <-done
}

// sendAfterUnlock releases before the send, so the held-set is empty.
func sendAfterUnlock(g *gauge, ch chan int) {
	g.mu.Lock()
	v := g.v
	g.mu.Unlock()
	ch <- v
}

// goroutineSend: the spawned goroutine does not inherit the caller's lock.
func goroutineSend(g *gauge, ch chan int) {
	g.mu.Lock()
	go func() {
		ch <- 1
	}()
	g.mu.Unlock()
}

// lockManager has acquire/release methods but is not a mutex; the naming
// heuristic must not classify lm.Lock() as a mutex operation.
type lockManager struct{}

func (lm *lockManager) Lock()   {}
func (lm *lockManager) Unlock() {}

func useManager(lm *lockManager) {
	lm.Lock()
}
