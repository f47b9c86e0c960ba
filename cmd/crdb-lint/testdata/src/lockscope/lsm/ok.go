// Negative cases for the lockscope check: the same heavy work is fine when
// it runs outside the critical section, and a justified //lint:allow
// suppresses the in-lock exceptions (zero-delay fault consults).
package lsm

import "sort"

func (e *engine) flushPipelined(entries []entry) {
	e.mu.Lock()
	// Rotation under the lock is a pointer swap; the build happens below,
	// after the unlock.
	e.mu.Unlock()
	t := newSSTable(3, entries)
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].key < t.entries[j].key })
	e.mu.Lock()
	e.tables = append(e.tables, t)
	e.mu.Unlock()
}

func (e *engine) consultOutsideLock(runs [][]entry) []entry {
	if e.faults.Should("lsm.compact.error") {
		return nil
	}
	merged := mergeSources(runs)
	e.mu.Lock()
	e.mu.Unlock()
	return merged
}

func (e *engine) allowedConsult() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:allow lockscope site is delay-free by contract
	return e.faults.Should("lsm.flush.error")
}

// install has no Locked suffix and takes no lock: heavy calls are fine.
func (e *engine) install(entries []entry) *table {
	return newSSTable(4, entries)
}
