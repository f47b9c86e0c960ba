package lsm

import (
	"errors"
	"fmt"
	"sort"
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
	// vlogGCDiscardRatio is the dead-byte fraction at which a value-log file
	// becomes a GC candidate.
	vlogGCDiscardRatio = 0.5
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
	// retried at the next threshold crossing), lsm.compact.error skips a
	// compaction round, lsm.vlog.write.error fails a value-log append (the
	// value is stored inline instead — a transparent degradation), and
	// lsm.vlog.gc.error aborts a value-log GC round mid-rewrite. The flush
	// and compaction sites are consulted under the engine lock, so configure
	// them without a Delay; the vlog sites are consulted outside it.
	Faults *faultinject.Registry
	// ValueThreshold is the minimum value size routed to the value log:
	// such values are stored in the append-only log, with a (fileID, offset,
	// len) pointer in their place (see vlog.go). Defaults to 1 KiB.
	ValueThreshold int
	// VlogFileSize is the rotation threshold for value-log segments.
	// Defaults to 1 MiB.
	VlogFileSize int64
	// BlockCacheBytes bounds the L1+ block cache; 0 disables it.
	BlockCacheBytes int64
	// HotKeyCacheSize bounds the hot-key read cache (entries); 0 disables it.
	HotKeyCacheSize int
	// Durable, when non-nil, makes the engine crash-survivable: every batch
	// is framed into a WAL inside the commit critical section, flushed
	// sstables and value-log segments are persisted into the directory, and
	// a versioned manifest tracks the level/vlog state. Open recovers an
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
	if out.ValueThreshold == 0 {
		out.ValueThreshold = 1 << 10
	}
	if out.VlogFileSize == 0 {
		out.VlogFileSize = 1 << 20
	}
	if out.WALSegmentSize == 0 {
		out.WALSegmentSize = 256 << 10
	}
	return out
}

// Metrics is a point-in-time snapshot of engine instrumentation. Admission
// control's capacity estimator (§5.1.3) consumes FlushedBytes,
// CompactedBytes, and L0 state.
type Metrics struct {
	// L0Files is the current number of sstables in level 0. A backlog here
	// increases read amplification and signals that compactions are behind.
	L0Files int
	// L0Bytes is the total bytes in level 0.
	L0Bytes int64
	// LevelBytes reports the bytes resident in each level.
	LevelBytes [numLevels]int64
	// FlushedBytes is the cumulative bytes flushed from memtables to L0.
	FlushedBytes int64
	// CompactedBytes is the cumulative bytes written by compactions.
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
	// Reads is the cumulative number of Get calls; BloomFiltered counts
	// candidate sstables skipped by a negative bloom-filter answer, and
	// TablesProbed counts sstables actually binary-searched. The three are
	// drawn from the engine's ReadMetrics counters, which may be shared
	// with other engines in the same deployment.
	Reads         int64
	BloomFiltered int64
	TablesProbed  int64
	// CompactionsCoalesced counts auto-compaction triggers that found
	// another compaction already in flight and handed it the backlog
	// instead of queueing behind the single-flight guard. Drawn from the
	// engine's WriteMetrics counter, which may be shared like ReadMetrics.
	CompactionsCoalesced int64
	// Cache counters (shared ReadMetrics, like Reads above): block-cache
	// hits/misses on L1+ point reads and hot-key cache hits/misses.
	BlockCacheHits   int64
	BlockCacheMisses int64
	HotCacheHits     int64
	HotCacheMisses   int64
	// Value-log counters (shared WriteMetrics): separated writes, inline
	// fallbacks from injected append failures, and GC rounds/rewrites/
	// reclaimed bytes.
	VlogWrites           int64
	VlogWriteFallbacks   int64
	VlogGCRounds         int64
	VlogGCRewritten      int64
	VlogGCReclaimedBytes int64
	// CorruptionErrors counts reads that surfaced ErrCorruption — a value
	// pointer whose log file stayed unreachable through every Get retry, or
	// that an iterator could not resolve against its snapshot's file set.
	// Drawn from the engine's ReadMetrics counter (may be shared).
	CorruptionErrors int64
	// Value-log occupancy for this engine (not shared): segment count and
	// live/dead payload bytes.
	VlogFiles     int
	VlogLiveBytes int64
	VlogDeadBytes int64
}

// ReadMetrics holds the read-path counters. One instance is shared by all
// engines registered against the same metric.Registry; see
// Options.ReadMetrics.
type ReadMetrics struct {
	Reads            *metric.Counter
	BloomFiltered    *metric.Counter
	TablesProbed     *metric.Counter
	BlockCacheHits   *metric.Counter
	BlockCacheMisses *metric.Counter
	HotCacheHits     *metric.Counter
	HotCacheMisses   *metric.Counter
	// CorruptionErrors counts reads that returned ErrCorruption: a value
	// pointer that stayed unresolvable after Get's GC-race retries, or at all
	// for an iterator (whose snapshot holds its files), meaning the file is
	// genuinely missing rather than mid-rewrite.
	CorruptionErrors *metric.Counter
}

// NewReadMetrics registers the read-path counters on reg and returns the
// shared instance to hand to each engine's Options.
func NewReadMetrics(reg *metric.Registry) *ReadMetrics {
	return &ReadMetrics{
		Reads:            reg.NewCounter("lsm.reads"),
		BloomFiltered:    reg.NewCounter("lsm.bloom.filtered"),
		TablesProbed:     reg.NewCounter("lsm.tables.probed"),
		BlockCacheHits:   reg.NewCounter("lsm.cache.block.hits"),
		BlockCacheMisses: reg.NewCounter("lsm.cache.block.misses"),
		HotCacheHits:     reg.NewCounter("lsm.cache.hot.hits"),
		HotCacheMisses:   reg.NewCounter("lsm.cache.hot.misses"),
		CorruptionErrors: reg.NewCounter("lsm.corruption.errors"),
	}
}

func newUnregisteredReadMetrics() *ReadMetrics {
	return &ReadMetrics{
		Reads:            &metric.Counter{},
		BloomFiltered:    &metric.Counter{},
		TablesProbed:     &metric.Counter{},
		BlockCacheHits:   &metric.Counter{},
		BlockCacheMisses: &metric.Counter{},
		HotCacheHits:     &metric.Counter{},
		HotCacheMisses:   &metric.Counter{},
		CorruptionErrors: &metric.Counter{},
	}
}

// WriteMetrics holds the write/maintenance-path counters. One instance is
// shared by all engines registered against the same metric.Registry; see
// Options.WriteMetrics.
type WriteMetrics struct {
	// CompactCoalesced counts auto-compaction triggers absorbed by an
	// already-running round (the single-flight guard).
	CompactCoalesced *metric.Counter
	// VlogWrites counts values separated into the value log; VlogFallbacks
	// counts injected append failures that degraded to inline storage.
	VlogWrites    *metric.Counter
	VlogFallbacks *metric.Counter
	// VlogGCRounds/VlogGCRewritten/VlogGCReclaimed instrument value-log GC:
	// candidate rounds started, live records moved to the log head, and
	// payload bytes of deleted files.
	VlogGCRounds    *metric.Counter
	VlogGCRewritten *metric.Counter
	VlogGCReclaimed *metric.Counter
	// WALBytes counts framed bytes appended to the WAL (headers + CRC);
	// WALFsyncs counts sync operations issued under the fsync policy.
	WALBytes  *metric.Counter
	WALFsyncs *metric.Counter
}

// NewWriteMetrics registers the write-path counters on reg and returns the
// shared instance to hand to each engine's Options.
func NewWriteMetrics(reg *metric.Registry) *WriteMetrics {
	return &WriteMetrics{
		CompactCoalesced: reg.NewCounter("lsm.compact.coalesced"),
		VlogWrites:       reg.NewCounter("lsm.vlog.writes"),
		VlogFallbacks:    reg.NewCounter("lsm.vlog.write.fallbacks"),
		VlogGCRounds:     reg.NewCounter("lsm.vlog.gc.rounds"),
		VlogGCRewritten:  reg.NewCounter("lsm.vlog.gc.rewritten"),
		VlogGCReclaimed:  reg.NewCounter("lsm.vlog.gc.reclaimed_bytes"),
		WALBytes:         reg.NewCounter("lsm.wal.bytes"),
		WALFsyncs:        reg.NewCounter("lsm.wal.fsyncs"),
	}
}

func newUnregisteredWriteMetrics() *WriteMetrics {
	return &WriteMetrics{
		CompactCoalesced: &metric.Counter{},
		VlogWrites:       &metric.Counter{},
		VlogFallbacks:    &metric.Counter{},
		VlogGCRounds:     &metric.Counter{},
		VlogGCRewritten:  &metric.Counter{},
		VlogGCReclaimed:  &metric.Counter{},
		WALBytes:         &metric.Counter{},
		WALFsyncs:        &metric.Counter{},
	}
}

// flushJob is a rotated (immutable) memtable waiting for its SSTable build
// to install. The table id is reserved at rotation time so id order — which
// seeds the replacement memtable and orders L0 — matches rotation order even
// when concurrent builds install out of order.
type flushJob struct {
	mem *memTable
	id  uint64
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

	// compactMu is the compaction single-flight guard. Auto-compaction
	// (maybeCompact) TryLocks it and counts a coalesced round on failure;
	// manual Compact blocks on it. It is always acquired before e.mu, never
	// while holding it.
	compactMu sync.Mutex

	// mergesActive counts compaction merges currently running outside the
	// engine lock — a test hook for asserting reads stay unblocked.
	mergesActive atomic.Int32

	// vlog is the value-separation log. It has its own lock; the order is
	// e.mu before vlog.mu, never the reverse.
	vlog *valueLog
	// blockCache caches decoded L1+ blocks (nil when off).
	blockCache *blockCache
	// hotCache caches resolved point-read results (nil when off).
	hotCache *hotCache
	// writeEpoch increments under e.mu on every ApplyBatch before its keys
	// are invalidated in the hot cache; fills computed against an older
	// epoch are rejected (see hotCache.addHot).
	writeEpoch atomic.Uint64
	// snapSeq is the highest mu.seq an iterator has captured. NewIter stores
	// it under the read lock (mu.seq only grows, so it only grows); writers
	// read it under the exclusive lock to tell whether any snapshot can hold
	// the version they are about to overwrite (see memTable.set).
	snapSeq atomic.Uint64

	mu struct {
		sync.RWMutex
		// seq numbers the batches applied to the memtables: bumped once per
		// ApplyBatch, per replayed WAL record and per GC pointer install,
		// always under the exclusive lock and before the batch's first entry
		// lands. An iterator captures it under the read lock — so never from
		// inside a batch — and ignores memtable versions above it.
		seq uint64
		mem *memTable
		// imm holds rotated memtables whose SSTable builds are in flight,
		// newest-first. Reads consult mem → imm → levels.
		imm     []*flushJob
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

// newEngineShell builds an engine with metrics and caches wired but no
// memtable, value log, or WAL state — New fills those in fresh, Open from
// the recovered durable state.
func newEngineShell(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults(), l0Threshold: l0CompactionThreshold, lBaseMax: lBaseMaxBytes}
	e.readMetrics = e.opts.ReadMetrics
	if e.readMetrics == nil {
		e.readMetrics = newUnregisteredReadMetrics()
	}
	e.writeMetrics = e.opts.WriteMetrics
	if e.writeMetrics == nil {
		e.writeMetrics = newUnregisteredWriteMetrics()
	}
	if e.opts.BlockCacheBytes > 0 {
		e.blockCache = newBlockCache(e.opts.BlockCacheBytes)
	}
	if e.opts.HotKeyCacheSize > 0 {
		e.hotCache = newHotCache(e.opts.HotKeyCacheSize)
	}
	return e
}

// New returns an empty Engine. With Options.Durable set it starts a fresh
// durable engine over the directory (assumed empty); use Open to recover
// existing durable state after a crash.
func New(opts Options) *Engine {
	e := newEngineShell(opts)
	e.vlog = newValueLog(e.opts.VlogFileSize, e.opts.Durable)
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
// levels from the persisted sstables, re-opens the value-log files found in
// the directory, and replays the WAL from the manifest's minimum unflushed
// segment into a fresh memtable, truncating at the first torn or corrupt
// record. New appends go to a segment beyond every recovered one — a torn
// tail is never appended to. With a nil Durable (or an empty directory)
// Open is equivalent to New.
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
	e.vlog = recoverValueLog(e.opts.VlogFileSize, dir, m)
	e.mu.nextID = m.nextID
	// The replacement-memtable convention from flushLocked: the skiplist seed
	// derives from the next table id, so recovery lands on the same seed a
	// surviving engine would have used for a memtable created at this point.
	mem := newMemTable(randutil.NewRand(int64(m.nextID)))
	mem.firstSeg = m.minUnflushedSeg
	var discards []valuePointer
	if _, err := replayWAL(dir, m.minUnflushedSeg, func(entries []Entry) {
		// One sequence number per record, as the original commit had. No
		// iterator exists yet, so every overwrite replaces in place.
		e.mu.seq++
		for _, ent := range entries {
			if old, replaced := mem.set(ent, e.mu.seq, 0); replaced && old.vptr {
				if p, perr := decodeValuePointer(old.Value); perr == nil {
					discards = append(discards, p)
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	e.mu.mem = mem
	e.mu.metrics.MemTableBytes = mem.sizeB
	// Same-memtable overwrites rediscovered by replay retire their old
	// value-log records, as the original commits did.
	for _, p := range discards {
		e.vlog.discard(p)
	}
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
// immutable memtable whose sstable build has not installed.
func (e *Engine) minUnflushedSegLocked() uint64 {
	min := e.mu.mem.firstSeg
	for _, j := range e.mu.imm {
		if j.mem.firstSeg < min {
			min = j.mem.firstSeg
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
	// Lock order: e.mu before vlog.mu, the established direction.
	m.vlogActiveID, m.vlogFiles = e.vlog.manifestState()
	installManifest(e.opts.Durable, m)
	e.mu.wal.deleteSegmentsBelow(m.minUnflushedSeg)
}

// walSyncBarrier forces any buffered WAL tail to durability. Value-log GC
// invokes it before deleting a rewritten file: the relocated pointers ride
// WAL records that must survive a crash that the deletion does.
func (e *Engine) walSyncBarrier() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mu.wal == nil || e.mu.closed {
		return
	}
	pre := e.mu.wal.fsyncs
	e.mu.wal.sync()
	e.noteWALFsyncsLocked(pre)
}

// Set writes key=value.
func (e *Engine) Set(key, value []byte) error {
	return e.apply(Entry{Key: cloneBytes(key), Value: cloneBytes(value)})
}

// Delete writes a tombstone for key.
func (e *Engine) Delete(key []byte) error {
	return e.apply(Entry{Key: cloneBytes(key), Tombstone: true})
}

// ApplyBatch writes a batch of entries atomically with respect to flushes.
// If the batch pushes the memtable past its threshold, the rotation happens
// inside the same critical section as the writes: a concurrent writer that
// also crossed the threshold observes the already-rotated (empty) memtable
// instead of re-flushing it.
func (e *Engine) ApplyBatch(entries []Entry) error {
	// An injected write stall (a backed-up WAL or flush queue) delays the
	// batch before it reaches the engine lock, so stalled writers don't block
	// readers for the stall's duration.
	e.opts.Faults.Should("lsm.write.stall")
	// Value separation happens before the engine lock: large values go to
	// the value log (its own lock) and only the 12-byte pointer enters the
	// critical section. An injected append failure degrades to inline
	// storage — logically transparent, so replicas whose fault streams
	// diverge still converge on reads.
	sep := make([]Entry, len(entries))
	for i, ent := range entries {
		ent.Key = cloneBytes(ent.Key)
		ent.Value = cloneBytes(ent.Value)
		if !ent.Tombstone && !ent.vptr && len(ent.Value) >= e.opts.ValueThreshold {
			if err := e.opts.Faults.MaybeErr("lsm.vlog.write.error"); err != nil {
				e.writeMetrics.VlogFallbacks.Inc(1)
			} else {
				ent.Value = encodeValuePointer(e.vlog.append(ent.Key, ent.Value))
				ent.vptr = true
				e.writeMetrics.VlogWrites.Inc(1)
			}
		}
		sep[i] = ent
	}
	var discards []valuePointer
	e.mu.Lock()
	if e.mu.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	// WAL first, inside the critical section: the record is framed and (per
	// the fsync policy) synced before any entry becomes visible, and record
	// order is exactly apply order. Volatile engines account the bytes the
	// batch would have framed, so WALBytes stays comparable.
	if len(sep) > 0 {
		if e.mu.wal != nil {
			var payload []byte
			for _, ent := range sep {
				payload = appendEntry(payload, ent)
			}
			e.walAppendLocked(payload)
		} else {
			framed := int64(walRecordHeaderLen)
			for _, ent := range sep {
				framed += int64(9 + len(ent.Key) + len(ent.Value))
			}
			e.mu.metrics.WALBytes += framed
			e.writeMetrics.WALBytes.Inc(framed)
		}
	}
	// The epoch bump precedes the invalidations, so a racing fill either
	// sees the new epoch (and rejects itself) or lands before the
	// invalidation (and is removed by it).
	e.writeEpoch.Add(1)
	e.mu.seq++
	snapSeq := e.snapSeq.Load()
	for _, ent := range sep {
		if e.hotCache != nil {
			e.hotCache.invalidate(ent.Key)
		}
		if old, replaced := e.mu.mem.set(ent, e.mu.seq, snapSeq); replaced && old.vptr {
			if p, err := decodeValuePointer(old.Value); err == nil {
				discards = append(discards, p)
			}
		}
	}
	e.mu.metrics.MemTableBytes = e.mu.mem.sizeB
	var sp *trace.Span
	var job *flushJob
	if e.mu.mem.sizeB >= e.opts.MemTableSize {
		// A failed background flush is not a write failure: the entries are
		// already durable in the memtable (and WAL, in a real engine) and the
		// rotation is retried at the next threshold crossing.
		sp, job, _ = e.flushLocked() //lint:allow faulterr a failed background flush is not a write failure; rotation retries at the next threshold crossing
	}
	e.mu.Unlock()
	// Same-memtable overwrites retire their old value-log records; reported
	// outside the lock (discard stats drive GC, nothing on the read path).
	for _, p := range discards {
		e.vlog.discard(p)
	}
	e.finishFlush(sp, job)
	return nil
}

func (e *Engine) apply(ent Entry) error {
	return e.ApplyBatch([]Entry{ent})
}

// Get returns the value for key. The boolean reports whether the key exists
// (a tombstone reads as not found).
//
// The read path holds the engine lock only long enough to probe the active
// memtable and snapshot the immutable runs (every install is copy-on-write,
// so the snapshotted slices never mutate); the level walk, block decodes,
// cache fills, and value-log resolution all run outside it. A pointer whose
// value-log file was deleted by a GC that raced the unlocked window simply
// retries from a fresh snapshot — the rewrite installed the new pointer
// before the deletion, so the retry finds it.
func (e *Engine) Get(key []byte) ([]byte, bool, error) {
	e.readMetrics.Reads.Inc(1)
	if e.hotCache != nil {
		if v, ok, hit := e.hotCache.get(key); hit {
			e.readMetrics.HotCacheHits.Inc(1)
			return v, ok, nil
		}
		e.readMetrics.HotCacheMisses.Inc(1)
	}
	for attempt := 0; ; attempt++ {
		v, ok, err := e.getOnce(key)
		if err == errVlogFileGone {
			if attempt < 16 {
				continue
			}
			// A pointer that stays unresolvable through every retry is not a
			// GC race (the rewrite installs the new pointer before deleting
			// the file): the value-log file is genuinely missing. Surface it
			// as typed corruption, not the internal retry sentinel.
			e.readMetrics.CorruptionErrors.Inc(1)
			return nil, false, fmt.Errorf("%w: value-log file unresolvable after %d attempts for key %q",
				ErrCorruption, attempt+1, key)
		}
		// getOnce returns an engine-owned view; the caller gets its own copy.
		return cloneBytes(v), ok, err
	}
}

// getOnce runs one snapshot-probe-resolve pass of the read path.
func (e *Engine) getOnce(key []byte) ([]byte, bool, error) {
	e.mu.RLock()
	if e.mu.closed {
		e.mu.RUnlock()
		return nil, false, ErrClosed
	}
	epoch := e.writeEpoch.Load()
	ent, found := e.mu.mem.get(key)
	imm := e.mu.imm
	levels := e.mu.levels // an array of slice headers: a cheap, stable snapshot
	e.mu.RUnlock()

	if !found {
		ent, found = e.probeRuns(key, imm, levels)
	}
	var v []byte
	ok := false
	if found && !ent.Tombstone {
		var err error
		v, err = e.resolveValue(ent)
		if err != nil {
			return nil, false, err
		}
		ok = true
	}
	if e.hotCache != nil {
		e.hotCache.addHot(key, v, ok, epoch, &e.writeEpoch)
	}
	return v, ok, nil
}

// probeRuns walks a snapshot of the immutable runs newest-first and returns
// the first authoritative entry for key (tombstones included — the walk
// never continues past one).
func (e *Engine) probeRuns(key []byte, imm []*flushJob, levels [numLevels][]*ssTable) (Entry, bool) {
	// Immutable memtables whose SSTable builds are in flight, newest-first.
	// They hold data that has left the active memtable but not yet reached
	// L0; skipping them would un-ack acknowledged writes.
	for _, j := range imm {
		if ent, ok := j.mem.get(key); ok {
			return ent, true
		}
	}
	// L0: newest first. Any L0 table may overlap the key, but the bloom
	// filter lets most of a deep backlog be skipped without a search. L0
	// bypasses the block cache: compaction churns it too fast to earn hits.
	for _, t := range levels[0] {
		if !t.filter.mayContain(key) {
			e.readMetrics.BloomFiltered.Inc(1)
			continue
		}
		e.readMetrics.TablesProbed.Inc(1)
		if ent, ok := t.get(key, nil); ok {
			return ent, true
		}
	}
	for lvl := 1; lvl < numLevels; lvl++ {
		tables := levels[lvl]
		// L1+ tables are sorted and non-overlapping: binary-search the
		// level's maxKey bounds for the one table that can contain key.
		i := sortSearchTables(tables, key)
		if i < 0 {
			continue
		}
		t := tables[i]
		if !t.filter.mayContain(key) {
			e.readMetrics.BloomFiltered.Inc(1)
			continue
		}
		e.readMetrics.TablesProbed.Inc(1)
		if ent, ok := t.getCounting(key, e.blockCache, e.readMetrics); ok {
			return ent, true
		}
	}
	return Entry{}, false
}

// resolveValue returns a stable engine-owned view of a non-tombstone
// entry's value, chasing its value-log pointer if separated. Inline values
// alias immutable memtable entries or sstable blocks; separated values
// alias the immutable value-log buffer. Callers hand out copies, not the
// view — the hot cache stores the view as is.
func (e *Engine) resolveValue(ent Entry) ([]byte, error) {
	if !ent.vptr {
		return ent.Value, nil
	}
	ptr, err := decodeValuePointer(ent.Value)
	if err != nil {
		return nil, err
	}
	return e.vlog.get(ptr)
}

// Flush moves the active memtable into a new L0 sstable. The flush is
// complete — data queryable from L0, metrics updated — by the time Flush
// returns, even though the build runs outside the engine lock.
func (e *Engine) Flush() error {
	e.mu.Lock()
	if e.mu.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	sp, job, err := e.flushLocked()
	e.mu.Unlock()
	e.finishFlush(sp, job)
	return err
}

// finishFlush runs the follow-ups of a rotation outside the engine lock:
// build and install the sstable, compact if auto-compaction is on, and
// finish the flush span. A nil job (nothing rotated) does nothing.
func (e *Engine) finishFlush(sp *trace.Span, job *flushJob) {
	if job == nil {
		return
	}
	e.buildAndInstall(sp, job)
	if !e.noAutoCompact {
		e.maybeCompact()
	}
	sp.Finish()
}

// flushLocked rotates the active memtable. The caller must hold e.mu
// (write-locked) and, after releasing it, pass the returned span and job to
// finishFlush (the span's duration is meant to cover any follow-up
// compaction). The job is nil when nothing rotated: the memtable was empty,
// or an injected flush error (lsm.flush.error) left it in place — nothing is
// lost, the rotation just didn't happen.
//
// The rotation is a pointer swap: the old memtable joins e.mu.imm, where
// reads keep finding it, and the sort + bloom build runs outside the lock
// on the calling goroutine. The synchronous handoff — not a free-running
// background goroutine — is what keeps same-seed runs byte-identical
// (DESIGN.md §8). The sstable id is reserved here so id order matches
// rotation order; the replacement memtable's seed derives from nextID
// exactly as the seed code did.
func (e *Engine) flushLocked() (*trace.Span, *flushJob, error) {
	if e.mu.mem.empty() {
		return nil, nil, nil
	}
	//lint:allow lockscope fault site is delay-free by contract (Options.Faults)
	if err := e.opts.Faults.MaybeErr("lsm.flush.error"); err != nil {
		return nil, nil, err
	}
	sp := e.opts.Tracer.StartRoot("lsm.flush")
	job := &flushJob{mem: e.mu.mem, id: e.mu.nextID}
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
	e.mu.imm = append([]*flushJob{job}, e.mu.imm...)
	return sp, job, nil
}

// buildAndInstall constructs the sstable for a rotated memtable outside the
// engine lock and publishes it into L0. It runs synchronously on the
// goroutine that triggered the rotation: readers are not blocked by the
// build, yet the flush still completes before the write (or Flush call)
// that caused it returns.
func (e *Engine) buildAndInstall(sp *trace.Span, job *flushJob) {
	t := newSSTable(job.id, job.mem.entries())
	e.mu.Lock()
	e.installFlushLocked(job, t, sp)
	e.mu.Unlock()
}

// installFlushLocked publishes a built sstable into L0, retiring its flush
// job from the immutable queue. L0 is kept ordered newest-first by table id,
// so out-of-order installs from concurrent builds cannot invert shadowing.
//
// Every slice mutation here is copy-on-write: readers snapshot the imm and
// level slice headers under RLock and keep walking them after releasing the
// lock, so the arrays behind a published header must never change.
func (e *Engine) installFlushLocked(job *flushJob, t *ssTable, sp *trace.Span) {
	imm := make([]*flushJob, 0, len(e.mu.imm))
	for _, j := range e.mu.imm {
		if j != job {
			imm = append(imm, j)
		}
	}
	e.mu.imm = imm
	pos := sort.Search(len(e.mu.levels[0]), func(i int) bool {
		return e.mu.levels[0][i].id < t.id
	})
	l0 := make([]*ssTable, 0, len(e.mu.levels[0])+1)
	l0 = append(l0, e.mu.levels[0][:pos]...)
	l0 = append(l0, t)
	l0 = append(l0, e.mu.levels[0][pos:]...)
	e.mu.levels[0] = l0
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
	var l0Bytes int64
	for _, t := range e.mu.levels[0] {
		l0Bytes += t.sizeB
	}
	m.L0Bytes = l0Bytes
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
	m.Reads = e.readMetrics.Reads.Value()
	m.BloomFiltered = e.readMetrics.BloomFiltered.Value()
	m.TablesProbed = e.readMetrics.TablesProbed.Value()
	m.CompactionsCoalesced = e.writeMetrics.CompactCoalesced.Value()
	m.BlockCacheHits = e.readMetrics.BlockCacheHits.Value()
	m.BlockCacheMisses = e.readMetrics.BlockCacheMisses.Value()
	m.HotCacheHits = e.readMetrics.HotCacheHits.Value()
	m.HotCacheMisses = e.readMetrics.HotCacheMisses.Value()
	m.VlogWrites = e.writeMetrics.VlogWrites.Value()
	m.VlogWriteFallbacks = e.writeMetrics.VlogFallbacks.Value()
	m.VlogGCRounds = e.writeMetrics.VlogGCRounds.Value()
	m.VlogGCRewritten = e.writeMetrics.VlogGCRewritten.Value()
	m.VlogGCReclaimedBytes = e.writeMetrics.VlogGCReclaimed.Value()
	m.CorruptionErrors = e.readMetrics.CorruptionErrors.Value()
	vs := e.vlog.stats()
	m.VlogFiles = vs.files
	m.VlogLiveBytes = vs.liveBytes
	m.VlogDeadBytes = vs.deadBytes
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

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
