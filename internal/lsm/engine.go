package lsm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/trace"
)

// numLevels is the number of on-disk levels (L0..L6), following Pebble.
const numLevels = 7

const (
	// l0CompactionThreshold is the number of L0 files that triggers an
	// L0->Lbase compaction.
	l0CompactionThreshold = 4
	// lBaseMaxBytes is the target size of L1; each deeper level is 10x
	// larger.
	lBaseMaxBytes = 16 << 20
	// maxWaitingMemTables is how many rotated memtables may wait for the
	// maintenance drain. A writer whose rotation leaves more waiting drains
	// them itself, after the running drain: the engine's only write stall.
	maxWaitingMemTables = 4
)

// Options configures an Engine.
type Options struct {
	// MemTableSize is the flush threshold in bytes. Defaults to 4 MiB.
	MemTableSize int64
	// Tracer, when non-nil, records background flush and compaction work
	// as root spans (lsm.flush / lsm.compact). The engine has no clock of
	// its own; span timestamps come from the tracer's clock.
	Tracer *trace.Tracer
	// ReadMetrics, when non-nil, receives the read-path counters. A
	// deployment creates one ReadMetrics per registry and shares it across
	// its engines (Registry panics on duplicate names, so per-engine
	// registration is not an option). When nil the engine allocates
	// private, unregistered counters so the Metrics snapshot still works.
	ReadMetrics *ReadMetrics
	// WriteMetrics, when non-nil, receives the write/maintenance-path
	// counters; shared across engines like ReadMetrics.
	WriteMetrics *WriteMetrics
	// Faults, when non-nil, arms the engine's fault-injection sites:
	// lsm.write.stall delays a write before it takes the engine lock,
	// lsm.flush.error fails a memtable rotation (the memtable stays and is
	// retried at the next threshold crossing), and lsm.compact.error skips a
	// compaction round. The flush and compaction sites are consulted under
	// the engine lock, so configure them without a Delay.
	Faults *faultinject.Registry
	// BlockCacheBytes is inert: nothing reads it.
	//
	// Deprecated: the engine's one read path, the iterator, walks resident
	// blocks in place and has no block cache. The field stays only because
	// the benchmark module still sets it; ROADMAP's bench-only item (d)
	// deletes it.
	//lint:allow deadsurface roadmap: the bench-only item, part (d), stops bench/e2e setting it, then deletes it
	BlockCacheBytes int64
	// HotKeyCacheSize is inert: nothing reads it.
	//
	// Deprecated: there is no hot-key cache. The field stays, and goes, with
	// BlockCacheBytes.
	//lint:allow deadsurface roadmap: the bench-only item, part (d), deletes it with BlockCacheBytes
	HotKeyCacheSize int
	// Durable, when non-nil, makes the engine crash-survivable: every batch
	// is framed into a WAL inside the commit critical section, flushed
	// sstables are persisted into the directory, and a versioned manifest
	// tracks the level state. Open recovers an
	// engine from the directory's contents after a crash. nil (the default)
	// keeps the engine volatile, the pre-durability behavior.
	Durable *Dir
	// WALSegmentSize is the WAL's size-based rotation threshold. Defaults to
	// 256 KiB.
	WALSegmentSize int64
	// WALBytesPerSync is the fsync policy: 0 (the default) syncs after every
	// record — no acknowledged write can be lost; > 0 groups syncs until
	// that many bytes have accumulated, trading a torn tail on crash for
	// fewer syncs. Recovery truncates the tail at the first torn record.
	WALBytesPerSync int64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemTableSize == 0 {
		out.MemTableSize = 4 << 20
	}
	if out.WALSegmentSize == 0 {
		out.WALSegmentSize = 256 << 10
	}
	return out
}

// Metrics is a point-in-time snapshot of engine instrumentation. Write
// admission (§5.1.3, admission.WriteRate) rates writes from L0Files and, over
// an interval, the bytes that left L0: FlushedBytes less LevelBytes[0]'s growth.
type Metrics struct {
	// L0Files is the current number of sstables in level 0. A backlog here
	// increases read amplification and signals that compactions are behind.
	L0Files int
	// LevelBytes reports the bytes resident in each level: logical bytes, the
	// sum of each entry's Entry.size, not the encoded blocks' length (a key
	// that shares its prefix takes fewer).
	LevelBytes [numLevels]int64
	// FlushedBytes is the cumulative bytes flushed from memtables to L0, and
	// CompactedBytes the cumulative bytes written by compactions, both
	// logical as LevelBytes is.
	FlushedBytes   int64
	CompactedBytes int64
	// FlushCount and CompactionCount are cumulative operation counts.
	FlushCount      int64
	CompactionCount int64
	// WALBytes is the cumulative framed bytes appended to the write-ahead
	// log — record headers and CRCs included. Volatile engines (no
	// Options.Durable) report the bytes the same batches would have framed,
	// so the metric is comparable across configurations.
	WALBytes int64
	// WALFsyncs is the cumulative number of WAL sync operations issued.
	WALFsyncs int64
	// MemTableBytes is the current size of the active memtable.
	MemTableBytes int64
	// ReadAmplification is the number of sorted runs a read may consult:
	// memtable + L0 files + one per non-empty deeper level.
	ReadAmplification int
	// TablesProbed counts sstables an iterator positioned in. It is drawn
	// from the engine's ReadMetrics counter, which may be shared with other
	// engines in the same deployment.
	TablesProbed int64
	// VlogLiveBytes and VlogDeadBytes are always 0: every value is stored
	// inline.
	//
	// Deprecated: there is no value log. The fields stay only because the
	// benchmark module still reads them; ROADMAP's bench-only item (d)
	// deletes them.
	//lint:allow deadsurface roadmap: the bench-only item, part (d), stops bench/e2e reading them, then deletes them
	VlogLiveBytes, VlogDeadBytes int64
}

// ReadMetrics holds the read-path counters. One instance is shared by all
// engines registered against the same metric.Registry; see
// Options.ReadMetrics.
type ReadMetrics struct {
	// TablesProbed counts sstables an iterator positioned in.
	TablesProbed *metric.Counter
}

// NewReadMetrics registers the read-path counters on reg and returns the
// shared instance to hand to each engine's Options.
func NewReadMetrics(reg *metric.Registry) *ReadMetrics {
	return &ReadMetrics{TablesProbed: reg.NewCounter("lsm.tables.probed")}
}

func newUnregisteredReadMetrics() *ReadMetrics {
	return &ReadMetrics{TablesProbed: &metric.Counter{}}
}

// WriteMetrics holds the write/maintenance-path counters. One instance is
// shared by all engines registered against the same metric.Registry; see
// Options.WriteMetrics.
type WriteMetrics struct {
	// WALBytes counts framed bytes appended to the WAL (headers + CRC);
	// WALFsyncs counts sync operations issued under the fsync policy.
	WALBytes  *metric.Counter
	WALFsyncs *metric.Counter
}

// NewWriteMetrics registers the write-path counters on reg and returns the
// shared instance to hand to each engine's Options.
func NewWriteMetrics(reg *metric.Registry) *WriteMetrics {
	return &WriteMetrics{
		WALBytes:  reg.NewCounter("lsm.wal.bytes"),
		WALFsyncs: reg.NewCounter("lsm.wal.fsyncs"),
	}
}

func newUnregisteredWriteMetrics() *WriteMetrics {
	return &WriteMetrics{
		WALBytes:  &metric.Counter{},
		WALFsyncs: &metric.Counter{},
	}
}

// Engine is a single-node LSM storage engine. It is safe for concurrent use.
type Engine struct {
	opts Options

	// readMetrics is Options.ReadMetrics or a private instance. The
	// counters are atomic, so reads bump them under the shared RLock.
	readMetrics *ReadMetrics
	// writeMetrics is Options.WriteMetrics or a private instance.
	writeMetrics *WriteMetrics

	// l0Threshold and lBaseMax start at l0CompactionThreshold and
	// lBaseMaxBytes, and noAutoCompact turns off compaction scheduling after
	// writes. Only in-package tests change them, right after New, to build
	// specific level shapes.
	l0Threshold   int
	lBaseMax      int64
	noAutoCompact bool

	// maintMu is held by the one maintenance job: the drain, or a manual
	// Compact. Only its holder builds, merges or installs a table, so L0 and
	// L1+ change only under it. It is always acquired before e.mu, never
	// while holding it.
	maintMu sync.Mutex

	// jobStarted runs as each flush build ("flush") and compaction merge
	// ("compact") starts, outside e.mu, and the func it returns runs as the
	// job ends: a test seam that holds a job open or counts the jobs
	// running. It does nothing unless a test sets it.
	jobStarted func(job string) (ended func())

	// snapSeq is the highest mu.seq an iterator has captured. NewIter stores
	// it under the read lock (mu.seq only grows, so it only grows); writers
	// read it under the exclusive lock to tell whether any snapshot can hold
	// the version they are about to overwrite (see memTable.set).
	snapSeq atomic.Uint64

	mu struct {
		sync.RWMutex
		// seq numbers the batches applied to the memtables: bumped once per
		// ApplyBatch and per replayed WAL record, always under the exclusive
		// lock and before the batch's first entry lands. An iterator captures
		// it under the read lock — so never from inside a batch — and ignores
		// memtable versions above it.
		seq uint64
		mem *memTable
		// imm holds rotated memtables waiting for the drain to install them,
		// newest-first. Reads consult mem → imm → levels.
		imm     []*memTable
		levels  [numLevels][]*ssTable // L0 newest-first; L1+ sorted, non-overlapping
		nextID  uint64
		metrics Metrics
		closed  bool
		// wal is the write-ahead log writer (nil for volatile engines). It
		// is mutated only under the exclusive lock: batch commits append,
		// flushes rotate, installs advance the manifest and prune segments.
		wal *walWriter
	}
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("lsm: engine is closed")

// newEngineShell builds an engine with its metrics wired but no memtable or
// WAL state — New fills those in fresh, Open from the recovered
// durable state.
func newEngineShell(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults(), l0Threshold: l0CompactionThreshold, lBaseMax: lBaseMaxBytes}
	e.jobStarted = func(string) func() { return func() {} }
	e.readMetrics = e.opts.ReadMetrics
	if e.readMetrics == nil {
		e.readMetrics = newUnregisteredReadMetrics()
	}
	e.writeMetrics = e.opts.WriteMetrics
	if e.writeMetrics == nil {
		e.writeMetrics = newUnregisteredWriteMetrics()
	}
	return e
}

// New returns an empty Engine. With Options.Durable set it starts a fresh
// durable engine over the directory (assumed empty); use Open to recover
// existing durable state after a crash.
func New(opts Options) *Engine {
	e := newEngineShell(opts)
	e.mu.mem = newMemTable(randutil.NewRand(0))
	e.mu.nextID = 1
	if e.opts.Durable != nil {
		e.mu.wal = newWALWriter(e.opts.Durable, 1, e.opts.WALSegmentSize, e.opts.WALBytesPerSync)
		e.mu.mem.firstSeg = 1
	}
	return e
}

// Open recovers an Engine from the durable state in opts.Durable: it loads
// the manifest (verifying its checksum and format version), rebuilds the
// levels from the persisted sstables, and replays the WAL from the
// manifest's minimum unflushed segment into a fresh memtable, truncating at
// the first torn or corrupt record. New appends go to a segment beyond every
// recovered one — a torn tail is never appended to. With a nil Durable (or an
// empty directory) Open is equivalent to New.
func Open(opts Options) (*Engine, error) {
	dir := opts.Durable
	if dir == nil {
		return New(opts), nil
	}
	m, exists, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !exists {
		// No manifest: nothing was ever flushed. There may still be WAL
		// segments (a crash before the first flush), so replay from the
		// beginning with the initial state New would have used.
		m = &manifest{nextID: 1, minUnflushedSeg: 1, walSeg: 1}
	}
	e := newEngineShell(opts)
	for lvl := 0; lvl < numLevels; lvl++ {
		for _, id := range m.levels[lvl] {
			t, err := loadSSTable(dir, id)
			if err != nil {
				return nil, err
			}
			e.mu.levels[lvl] = append(e.mu.levels[lvl], t)
		}
	}
	e.mu.nextID = m.nextID
	// The replacement-memtable convention from rotateLocked: the skiplist seed
	// derives from the next table id, so recovery lands on the same seed a
	// surviving engine would have used for a memtable created at this point.
	mem := newMemTable(randutil.NewRand(int64(m.nextID)))
	mem.firstSeg = m.minUnflushedSeg
	if _, err := replayWAL(dir, m.minUnflushedSeg, func(entries []Entry) {
		// One sequence number per record, as the original commit had. No
		// iterator exists yet, so every overwrite replaces in place.
		e.mu.seq++
		for _, ent := range entries {
			mem.set(ent, e.mu.seq, 0)
		}
	}); err != nil {
		return nil, err
	}
	e.mu.mem = mem
	e.mu.metrics.MemTableBytes = mem.sizeB
	// Resume the WAL beyond every segment present: the last one may end in a
	// torn record, and appending after a truncated tail would resurrect it.
	nextSeg := m.walSeg
	if segs := walSegments(dir); len(segs) > 0 {
		if last := segs[len(segs)-1]; last > nextSeg {
			nextSeg = last
		}
	}
	e.mu.wal = newWALWriter(dir, nextSeg+1, e.opts.WALSegmentSize, e.opts.WALBytesPerSync)
	removeOrphanSSTables(dir, m)
	return e, nil
}

// removeOrphanSSTables deletes sstable files the manifest does not
// reference — the residue of a crash between persisting a table and
// installing the manifest that would have adopted it.
func removeOrphanSSTables(dir *Dir, m *manifest) {
	referenced := make(map[uint64]bool)
	for lvl := 0; lvl < numLevels; lvl++ {
		for _, id := range m.levels[lvl] {
			referenced[id] = true
		}
	}
	for _, name := range dir.List("sst-") {
		var id uint64
		if _, err := fmt.Sscanf(name, "sst-%d", &id); err != nil {
			continue
		}
		if !referenced[id] {
			dir.Remove(name)
		}
	}
}

// walAppendLocked frames one record into the WAL and keeps the byte/fsync
// metrics current. Caller holds e.mu exclusively and has checked wal != nil.
func (e *Engine) walAppendLocked(payload []byte) {
	w := e.mu.wal
	pre := w.fsyncs
	framed, _ := w.append(payload)
	e.mu.metrics.WALBytes += framed
	e.writeMetrics.WALBytes.Inc(framed)
	e.noteWALFsyncsLocked(pre)
}

// noteWALFsyncsLocked folds syncs issued since pre into the metrics.
func (e *Engine) noteWALFsyncsLocked(pre int64) {
	if d := e.mu.wal.fsyncs - pre; d > 0 {
		e.mu.metrics.WALFsyncs += d
		e.writeMetrics.WALFsyncs.Inc(d)
	}
}

// minUnflushedSegLocked returns the lowest WAL segment still holding
// unflushed data: the minimum firstSeg over the active memtable and every
// immutable memtable whose sstable has not installed.
func (e *Engine) minUnflushedSegLocked() uint64 {
	min := e.mu.mem.firstSeg
	for _, m := range e.mu.imm {
		if m.firstSeg < min {
			min = m.firstSeg
		}
	}
	return min
}

// writeManifestLocked installs a manifest describing the current durable
// state and prunes WAL segments recovery can no longer need. Called under
// e.mu after every flush or compaction install; a no-op for volatile
// engines.
func (e *Engine) writeManifestLocked() {
	if e.mu.wal == nil {
		return
	}
	m := &manifest{
		nextID:          e.mu.nextID,
		minUnflushedSeg: e.minUnflushedSegLocked(),
		walSeg:          e.mu.wal.seg,
	}
	for lvl := 0; lvl < numLevels; lvl++ {
		for _, t := range e.mu.levels[lvl] {
			m.levels[lvl] = append(m.levels[lvl], t.id)
		}
	}
	installManifest(e.opts.Durable, m)
	e.mu.wal.deleteSegmentsBelow(m.minUnflushedSeg)
}

// ApplyBatch writes a batch of entries atomically with respect to flushes.
// If the batch pushes the memtable past its threshold, the rotation happens
// inside the same critical section as the writes: a concurrent writer that
// also crossed the threshold observes the already-rotated (empty) memtable
// instead of re-flushing it. The writer that rotated then runs the drain,
// unless the drain is already running, in which case it returns at once —
// or, when its rotation left more than maxWaitingMemTables waiting, waits.
func (e *Engine) ApplyBatch(entries []Entry) error {
	// An injected write stall (a backed-up WAL or flush queue) delays the
	// batch before it reaches the engine lock, so stalled writers don't block
	// readers for the stall's duration.
	e.opts.Faults.Should("lsm.write.stall")
	e.mu.Lock()
	if e.mu.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	// WAL first, inside the critical section: the record is framed and (per
	// the fsync policy) synced before any entry becomes visible, and record
	// order is exactly apply order. Volatile engines account the bytes the
	// batch would have framed, so WALBytes stays comparable.
	if len(entries) > 0 {
		if e.mu.wal != nil {
			var payload, prev []byte
			for _, ent := range entries {
				payload = appendEntry(payload, sharedLen(prev, ent.Key), ent)
				prev = ent.Key
			}
			e.walAppendLocked(payload)
		} else {
			framed := int64(walRecordHeaderLen)
			var prev []byte
			for _, ent := range entries {
				framed += int64(entryLen(sharedLen(prev, ent.Key), ent))
				prev = ent.Key
			}
			e.mu.metrics.WALBytes += framed
			e.writeMetrics.WALBytes.Inc(framed)
		}
	}
	e.mu.seq++
	snapSeq := e.snapSeq.Load()
	// The memtable copies each entry into its arena: the caller may reuse its
	// buffers once ApplyBatch returns.
	for _, ent := range entries {
		e.mu.mem.set(ent, e.mu.seq, snapSeq)
	}
	e.mu.metrics.MemTableBytes = e.mu.mem.sizeB
	rotated, stall := false, false
	if e.mu.mem.sizeB >= e.opts.MemTableSize {
		// A failed background flush is not a write failure: the entries are
		// already durable in the memtable (and WAL, in a real engine) and the
		// rotation is retried at the next threshold crossing.
		rotated, _ = e.rotateLocked() //lint:allow faulterr a failed background flush is not a write failure; rotation retries at the next threshold crossing
		stall = len(e.mu.imm) > maxWaitingMemTables
	}
	e.mu.Unlock()
	if rotated {
		e.drain(stall)
	}
	return nil
}

// Flush moves the active memtable into a new L0 sstable. The flush is
// complete — data queryable from L0, metrics updated — by the time Flush
// returns: it waits for a running drain and then drains itself.
//
//lint:allow deadsurface test seam: TestScanMatchesGet and TestRecoverNodeReadsAppliedIndexFromTable flush to reach an sstable
func (e *Engine) Flush() error {
	e.mu.Lock()
	if e.mu.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	rotated, err := e.rotateLocked()
	e.mu.Unlock()
	if rotated {
		e.drain(true)
	}
	return err
}

// rotateLocked swaps the active memtable for an empty one and queues it on
// e.mu.imm, where reads keep finding it until the drain installs its
// sstable. The caller must hold e.mu (write-locked) and, after releasing it,
// run the drain. It reports false when nothing rotated: the memtable was
// empty, or an injected flush error (lsm.flush.error) left it in place —
// nothing is lost, the rotation just didn't happen.
//
// The sstable ID is reserved here, and the replacement memtable's seed
// derives from nextID exactly as the seed code did, so a seeded run's table
// IDs follow its rotations.
func (e *Engine) rotateLocked() (bool, error) {
	if e.mu.mem.empty() {
		return false, nil
	}
	//lint:allow lockscope fault site is delay-free by contract (Options.Faults)
	if err := e.opts.Faults.MaybeErr("lsm.flush.error"); err != nil {
		return false, err
	}
	rotated := e.mu.mem
	rotated.id = e.mu.nextID
	e.mu.nextID++
	if e.mu.wal != nil {
		// Rotate the WAL with the memtable: the rotated memtable's records
		// end at the segment boundary, and once its sstable installs, the
		// manifest's unflushed floor advances past them.
		pre := e.mu.wal.fsyncs
		e.mu.wal.rotate()
		e.noteWALFsyncsLocked(pre)
	}
	e.mu.mem = newMemTable(randutil.NewRand(int64(e.mu.nextID)))
	if e.mu.wal != nil {
		e.mu.mem.firstSeg = e.mu.wal.seg
	}
	e.mu.metrics.MemTableBytes = 0
	e.mu.imm = append([]*memTable{rotated}, e.mu.imm...)
	return true, nil
}

// drain is the engine's one maintenance job, run on the calling goroutine,
// never on a background one, which keeps same-seed runs byte-identical
// (DESIGN.md §9). With wait set (Flush, or a writer past
// maxWaitingMemTables) it waits for a running drain and then maintains.
// Otherwise a caller that finds e.maintMu held returns at once: it rotated
// after the holder's last look at imm, so the holder, having unlocked,
// looks again and maintains if no one else holds maintMu by then.
func (e *Engine) drain(wait bool) {
	if wait {
		e.maintMu.Lock()
		e.maintain()
		e.maintMu.Unlock()
	}
	for e.oldestWaiting() != nil && e.maintMu.TryLock() {
		e.maintain()
		e.maintMu.Unlock()
	}
}

// maintain installs every rotated memtable, oldest first, and runs
// compaction rounds until the level invariants hold, installing what
// rotates meanwhile before each round. The caller holds e.maintMu.
func (e *Engine) maintain() {
	for round := 0; round < 64; round++ { // bound runaway loops defensively
		e.installWaiting()
		if e.noAutoCompact || !e.compactOnce() {
			return
		}
	}
}

// oldestWaiting returns the oldest rotated memtable waiting for the drain,
// or nil when none waits or the engine is closed.
func (e *Engine) oldestWaiting() *memTable {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.mu.closed || len(e.mu.imm) == 0 {
		return nil
	}
	return e.mu.imm[len(e.mu.imm)-1]
}

// installWaiting builds and installs every rotated memtable, oldest first,
// each build outside the engine lock. The caller holds e.maintMu.
func (e *Engine) installWaiting() {
	for m := e.oldestWaiting(); m != nil; m = e.oldestWaiting() {
		sp := e.opts.Tracer.StartRoot("lsm.flush")
		ended := e.jobStarted("flush")
		t := newSSTable(m.id, mergeSources([]iterSource{{mem: m}}, false))
		ended()
		e.mu.Lock()
		e.installFlushLocked(t, sp)
		e.mu.Unlock()
		sp.Finish()
	}
}

// installFlushLocked publishes a built sstable at the top of L0 and retires
// its memtable, the oldest in e.mu.imm. Nothing installs or persists once
// the engine is closed: a store's directory outlives a crashed engine as the
// next incarnation's state.
//
// Every slice mutation here is copy-on-write: readers snapshot the imm and
// level slice headers under RLock and keep walking them after releasing the
// lock, so the arrays behind a published header must never change.
func (e *Engine) installFlushLocked(t *ssTable, sp *trace.Span) {
	if e.mu.closed {
		return
	}
	e.mu.imm = slices.Clone(e.mu.imm[:len(e.mu.imm)-1])
	e.mu.levels[0] = append([]*ssTable{t}, e.mu.levels[0]...)
	e.mu.metrics.FlushedBytes += t.sizeB
	e.mu.metrics.FlushCount++
	if e.mu.wal != nil {
		// Persist the table before the manifest that references it; a crash
		// between the two leaves an orphan file that recovery deletes.
		persistSSTable(e.opts.Durable, t)
		e.writeManifestLocked()
	}
	sp.SetAttr("lsm.flushed_bytes", t.sizeB)
	sp.SetAttr("lsm.l0_files", len(e.mu.levels[0]))
}

// Metrics returns a snapshot of the engine's instrumentation.
func (e *Engine) Metrics() Metrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := e.mu.metrics
	m.L0Files = len(e.mu.levels[0])
	m.MemTableBytes = e.mu.mem.sizeB
	// Each immutable memtable is one more sorted run a read may consult.
	m.ReadAmplification = 1 + len(e.mu.imm) + len(e.mu.levels[0])
	for lvl := 0; lvl < numLevels; lvl++ {
		var b int64
		for _, t := range e.mu.levels[lvl] {
			b += t.sizeB
		}
		m.LevelBytes[lvl] = b
		if lvl >= 1 && len(e.mu.levels[lvl]) > 0 {
			m.ReadAmplification++
		}
	}
	m.TablesProbed = e.readMetrics.TablesProbed.Value()
	return m
}

// Close releases the engine. Subsequent operations return ErrClosed. A
// durable engine syncs any buffered WAL tail first, so a clean close loses
// nothing even under a relaxed fsync policy.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mu.closed {
		return
	}
	if e.mu.wal != nil {
		pre := e.mu.wal.fsyncs
		e.mu.wal.sync()
		e.noteWALFsyncsLocked(pre)
	}
	e.mu.closed = true
}

// String summarizes the level shape for debugging.
func (e *Engine) String() string {
	m := e.Metrics()
	s := fmt.Sprintf("mem=%dB", m.MemTableBytes)
	for lvl := 0; lvl < numLevels; lvl++ {
		s += fmt.Sprintf(" L%d=%dB", lvl, m.LevelBytes[lvl])
	}
	return s
}
