// The lockscope check is scoped to lsm and raftlite package directories: the
// same shapes in any other package are unremarkable and must not fire.
package other

import (
	"sort"
	"sync"
)

type reg struct{}

func (reg) Should(site string) bool { return false }

type thing struct {
	mu     sync.Mutex
	faults reg
	xs     []int
}

func mergeSources(xs []int) []int { return xs }

func (t *thing) sortUnderLockElsewhere() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.xs, func(i, j int) bool { return t.xs[i] < t.xs[j] })
	_ = mergeSources(t.xs)
	_ = t.faults.Should("some.site")
}

func (t *thing) helperLocked() {
	_ = mergeSources(t.xs)
}
