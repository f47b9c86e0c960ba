package lsm

import (
	"bytes"
	"sort"
)

// compactionPlan is the under-lock half of a compaction: the inputs picked
// from level lvl and the overlapping tables of lvl+1, snapshotted so the
// merge can run outside the engine lock.
type compactionPlan struct {
	lvl         int
	inputs      []*ssTable // all of level lvl at plan time
	overlapping []*ssTable // tables of lvl+1 the inputs' key range overlaps
	keep        []*ssTable // tables of lvl+1 untouched by the merge
	bottommost  bool
	outID       uint64
}

// compactOnce picks and executes at most one compaction. It reports whether
// any work was done. The caller must hold e.maintMu.
//
// The level pick and input snapshot happen under the engine lock; the merge
// and sstable build run outside it (readers and writers proceed); the
// install re-takes the lock to swap the inputs for the output. Only the
// holder of e.maintMu installs, so the levels the plan read are still the
// engine's at the install: rotations meanwhile wait in e.mu.imm.
func (e *Engine) compactOnce() bool {
	e.mu.Lock()
	if e.mu.closed {
		e.mu.Unlock()
		return false
	}
	// An injected compaction failure skips this round; the backlog persists
	// until a later write re-triggers the drain.
	//lint:allow lockscope fault site is delay-free by contract (Options.Faults)
	if e.opts.Faults.Should("lsm.compact.error") {
		e.mu.Unlock()
		return false
	}
	lvl := e.pickCompactionLocked()
	if lvl < 0 {
		e.mu.Unlock()
		return false
	}
	plan := e.planCompactionLocked(lvl)
	e.mu.Unlock()
	if plan == nil {
		return false
	}
	e.mergeAndInstall(plan)
	return true
}

// mergeAndInstall runs a planned compaction's merge outside the engine lock
// (readers and writers proceed) and re-takes the lock to install the output.
// The caller holds e.maintMu but not e.mu.
func (e *Engine) mergeAndInstall(plan *compactionPlan) {
	out, next := e.runMerge(plan)
	e.mu.Lock()
	e.installCompactionLocked(plan, out, next)
	e.mu.Unlock()
}

// pickCompactionLocked chooses the level to compact, or -1 for none.
func (e *Engine) pickCompactionLocked() int {
	// Priority 1: L0 backlog. A deep L0 inflates read amplification, which
	// is exactly the bottleneck §5.1.3 describes.
	if len(e.mu.levels[0]) >= e.l0Threshold {
		return 0
	}
	// Priority 2: size-triggered compaction of L1..L5 into the next level.
	target := e.lBaseMax
	for lvl := 1; lvl < numLevels-1; lvl++ {
		var b int64
		for _, t := range e.mu.levels[lvl] {
			b += t.sizeB
		}
		if b > target {
			return lvl
		}
		target *= 10
	}
	return -1
}

// planCompactionLocked snapshots the inputs for merging all of level lvl
// plus the overlapping tables of lvl+1 into lvl+1, and reserves the output
// table id. Returns nil when the level has nothing to compact. Every
// memtable waiting in e.mu.imm is newer than every table in the levels, so
// moving L0 down beneath them inverts no shadowing.
func (e *Engine) planCompactionLocked(lvl int) *compactionPlan {
	from := e.mu.levels[lvl]
	if len(from) == 0 {
		return nil
	}
	next := lvl + 1

	// Compute the key range covered by the input tables.
	var lo, hi []byte
	for _, t := range from {
		if lo == nil || bytes.Compare(t.minKey, lo) < 0 {
			lo = t.minKey
		}
		if hi == nil || bytes.Compare(t.maxKey, hi) > 0 {
			hi = t.maxKey
		}
	}

	plan := &compactionPlan{
		lvl:    lvl,
		inputs: from,
		outID:  e.mu.nextID,
	}
	e.mu.nextID++
	for _, t := range e.mu.levels[next] {
		if t.overlaps(lo, hi) {
			plan.overlapping = append(plan.overlapping, t)
		} else {
			plan.keep = append(plan.keep, t)
		}
	}
	// Tombstones can be dropped only when no data can exist beneath the
	// output level: the merge then contains every surviving version of the
	// deleted keys, so the tombstone shadows nothing.
	plan.bottommost = true
	for l := next + 1; l < numLevels; l++ {
		if len(e.mu.levels[l]) > 0 {
			plan.bottommost = false
			break
		}
	}
	return plan
}

// runMerge executes a plan's merge and builds the output table and the new
// next-level layout. The output is nil when a bottommost merge drops every
// entry: no table is installed, and the inputs still retire. It runs outside
// the engine lock.
func (e *Engine) runMerge(plan *compactionPlan) (*ssTable, []*ssTable) {
	defer e.jobStarted("compact")()
	sp := e.opts.Tracer.StartRoot("lsm.compact")
	defer sp.Finish()
	sp.SetAttr("lsm.level", plan.lvl)
	sp.SetAttr("lsm.input_tables", len(plan.inputs))

	// Newer runs first: L0 is stored newest-first, one source per table; a
	// sorted level is one source, and the upper level is newer than the
	// lower.
	srcs := make([]iterSource, 0, len(plan.inputs)+1)
	if plan.lvl == 0 {
		for i := range plan.inputs {
			srcs = append(srcs, iterSource{tables: plan.inputs[i : i+1]})
		}
	} else {
		srcs = append(srcs, iterSource{tables: plan.inputs})
	}
	srcs = append(srcs, iterSource{tables: plan.overlapping})
	merged := mergeSources(srcs, plan.bottommost)
	next := append([]*ssTable(nil), plan.keep...)
	var out *ssTable
	if len(merged) > 0 {
		out = newSSTable(plan.outID, merged)
		next = append(next, out)
		sort.Slice(next, func(i, j int) bool {
			return bytes.Compare(next[i].minKey, next[j].minKey) < 0
		})
		sp.SetAttr("lsm.output_bytes", out.sizeB)
	}
	return out, next
}

// installCompactionLocked swaps a finished merge into the level layout: the
// from-level empties and the next level becomes the merge's layout. A
// closed engine installs and persists nothing.
func (e *Engine) installCompactionLocked(plan *compactionPlan, out *ssTable, next []*ssTable) {
	if e.mu.closed {
		return
	}
	e.mu.levels[plan.lvl] = nil
	e.mu.levels[plan.lvl+1] = next
	e.mu.metrics.CompactionCount++
	if out != nil {
		e.mu.metrics.CompactedBytes += out.sizeB
	}
	if e.mu.wal != nil {
		// Output file before the manifest adopting it; input files only
		// after the manifest stops referencing them. A crash at any point
		// leaves a recoverable state (orphan outputs are deleted by Open).
		if out != nil {
			persistSSTable(e.opts.Durable, out)
		}
		e.writeManifestLocked()
		for _, t := range plan.inputs {
			e.opts.Durable.Remove(sstFileName(t.id))
		}
		for _, t := range plan.overlapping {
			e.opts.Durable.Remove(sstFileName(t.id))
		}
	}
}

// Compact forces a full manual compaction of every level down to the
// bottom. It waits for a running drain, so the level shape is fully
// compacted on return, and then drains what rotated while it ran.
//
//lint:allow deadsurface test seam: TestRecoverNodeReadsAppliedIndexFromTable compacts a node's engine to the bottom level
func (e *Engine) Compact() {
	e.maintMu.Lock()
	for lvl := 0; lvl < numLevels-1; lvl++ {
		e.mu.Lock()
		plan := e.planCompactionLocked(lvl)
		e.mu.Unlock()
		if plan != nil {
			e.mergeAndInstall(plan)
		}
	}
	e.maintMu.Unlock()
	e.drain(false)
}
