package lsm

import (
	"bytes"
	"sort"
)

// maybeCompact runs compactions until the level invariants hold: L0 file
// count below threshold and every level below its size target. Compactions
// run synchronously on the caller; the engine is single-writer from the
// perspective of the replica state machine above it, so deterministic
// caller-driven compaction keeps experiments reproducible.
//
// maybeCompact is the auto-compaction entry point and is single-flight:
// when another caller is already draining the backlog, this trigger is
// absorbed (counted on lsm.compact.coalesced) instead of queueing a
// redundant round behind it — the running round re-checks the invariants
// after every compaction and picks up any backlog added meanwhile. In the
// worst interleaving a trigger is absorbed just as the runner finishes its
// final check; the backlog then waits for the next write, which is also
// what happens when a round fails (see lsm.compact.error).
func (e *Engine) maybeCompact() {
	if !e.compactMu.TryLock() {
		e.writeMetrics.CompactCoalesced.Inc(1)
		return
	}
	defer e.compactMu.Unlock()
	for i := 0; i < 64; i++ { // bound runaway loops defensively
		if !e.compactOnce() {
			break
		}
	}
}

// compactionPlan is the under-lock half of a compaction: the inputs picked
// from level lvl and the overlapping tables of lvl+1, snapshotted so the
// merge can run outside the engine lock.
type compactionPlan struct {
	lvl         int
	inputs      []*ssTable // level lvl at plan time (for L0, those older than any in-flight flush)
	overlapping []*ssTable // tables of lvl+1 the inputs' key range overlaps
	keep        []*ssTable // tables of lvl+1 untouched by the merge
	bottommost  bool
	outID       uint64
}

// compactOnce picks and executes at most one compaction. It reports whether
// any work was done. The caller must hold e.compactMu.
//
// The level pick and input snapshot happen under the engine lock; the merge
// and sstable build run outside it (readers and writers proceed); the
// install re-takes the lock and verifies the inputs are still current
// before swapping them for the output.
func (e *Engine) compactOnce() bool {
	e.mu.Lock()
	if e.mu.closed {
		e.mu.Unlock()
		return false
	}
	// An injected compaction failure skips this round; the backlog persists
	// until a later write re-triggers the scheduler.
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
// The caller holds e.compactMu but not e.mu.
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

// planCompactionLocked snapshots the inputs for merging level lvl plus the
// overlapping tables of lvl+1 into lvl+1, and reserves the output table id.
// Returns nil when the level has nothing to compact.
//
// For L0 the inputs are only the tables older than every flush still in
// flight: an in-flight flush installs into L0 later, and a younger table
// already moved beneath it would be shadowed by the older data.
func (e *Engine) planCompactionLocked(lvl int) *compactionPlan {
	from := e.mu.levels[lvl]
	if lvl == 0 && len(e.mu.imm) > 0 {
		// Both queues are newest-first by id: the oldest in-flight flush is
		// imm's last job, and the tables older than it are a suffix of L0.
		floor := e.mu.imm[len(e.mu.imm)-1].id
		i := sort.Search(len(from), func(i int) bool { return from[i].id < floor })
		from = from[i:]
	}
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
		inputs: append([]*ssTable(nil), from...),
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
// the engine lock; the e.mergesActive counter is the test hook that asserts
// reads stay live while it does.
func (e *Engine) runMerge(plan *compactionPlan) (*ssTable, []*ssTable) {
	e.mergesActive.Add(1)
	defer e.mergesActive.Add(-1)
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

// installCompactionLocked swaps a finished merge into the level layout. The
// inputs must still be exactly the engine's current state for the affected
// levels: a concurrent flush prepends new L0 tables (which must survive the
// install), and a concurrent round could in principle have superseded the
// inputs entirely — in that case the output is discarded and the round
// abandoned (the invariant re-check in maybeCompact's loop redoes the work
// against current state).
func (e *Engine) installCompactionLocked(plan *compactionPlan, out *ssTable, next []*ssTable) {
	if e.mu.closed || !e.planInputsCurrentLocked(plan) {
		return
	}
	// Keep the tables of the from-level that arrived after the plan was
	// taken (flushes prepend to L0 while the merge runs); drop exactly the
	// planned inputs.
	planned := make(map[uint64]bool, len(plan.inputs))
	for _, t := range plan.inputs {
		planned[t.id] = true
	}
	var remain []*ssTable
	for _, t := range e.mu.levels[plan.lvl] {
		if !planned[t.id] {
			remain = append(remain, t)
		}
	}
	e.mu.levels[plan.lvl] = remain
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

// planInputsCurrentLocked reports whether every planned input (from-level
// tables and the next level's overlapping-or-kept split) is still present
// in the engine. Single-flight makes competing rounds impossible today, so
// this is a cheap belt-and-suspenders invariant; new L0 arrivals from
// concurrent flushes do not invalidate a plan.
func (e *Engine) planInputsCurrentLocked(plan *compactionPlan) bool {
	present := make(map[uint64]bool, len(e.mu.levels[plan.lvl])+len(e.mu.levels[plan.lvl+1]))
	for _, t := range e.mu.levels[plan.lvl] {
		present[t.id] = true
	}
	for _, t := range e.mu.levels[plan.lvl+1] {
		present[t.id] = true
	}
	for _, t := range plan.inputs {
		if !present[t.id] {
			return false
		}
	}
	for _, t := range plan.overlapping {
		if !present[t.id] {
			return false
		}
	}
	for _, t := range plan.keep {
		if !present[t.id] {
			return false
		}
	}
	return true
}

// Compact forces a full manual compaction of every level down to the
// bottom. Unlike maybeCompact it queues behind any in-flight round rather
// than coalescing with it: callers rely on the level shape being fully
// compacted on return.
//
//lint:allow deadsurface test seam: TestRecoverNodeReadsAppliedIndexFromTable compacts a node's engine to the bottom level
func (e *Engine) Compact() {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for lvl := 0; lvl < numLevels-1; lvl++ {
		e.mu.Lock()
		plan := e.planCompactionLocked(lvl)
		e.mu.Unlock()
		if plan != nil {
			e.mergeAndInstall(plan)
		}
	}
}
