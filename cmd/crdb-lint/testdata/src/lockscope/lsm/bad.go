// Positive cases for the lockscope check: heavy work (merges, SSTable
// builds, sorts, fault consults) performed while the engine lock is held.
// The directory base name "lsm" puts this package in the check's scope.
package lsm

import (
	"sort"
	"sync"
)

type entry struct{ key string }

type table struct{ entries []entry }

func mergeSources(runs [][]entry) []entry { return nil }

func newSSTable(id uint64, entries []entry) *table { return &table{entries: entries} }

type faultReg struct{}

func (faultReg) Should(site string) bool { return false }

func (faultReg) MaybeErr(site string) error { return nil }

type engine struct {
	mu     sync.Mutex
	faults faultReg
	tables []*table
}

func (e *engine) flushUnderLock(entries []entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := newSSTable(1, entries) // want lockscope
	e.tables = append(e.tables, t)
}

func (e *engine) compactUnderLock(runs [][]entry) {
	e.mu.Lock()
	merged := mergeSources(runs)               // want lockscope
	sort.Slice(e.tables, func(i, j int) bool { // want lockscope
		return e.tables[i].entries[0].key < e.tables[j].entries[0].key
	})
	_ = merged
	e.mu.Unlock()
}

func (e *engine) consultUnderLock() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faults.Should("lsm.compact.error") // want lockscope
}

func (e *engine) consultInCondition() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.faults.MaybeErr("lsm.flush.error"); err != nil { // want lockscope
		return
	}
}

// installLocked is analyzed as if a caller's lock were held: the *Locked
// naming convention marks helpers that require the engine mutex.
func (e *engine) installLocked(entries []entry) {
	t := newSSTable(2, entries) // want lockscope
	e.tables = append(e.tables, t)
}
