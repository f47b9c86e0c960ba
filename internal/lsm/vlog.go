package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Value separation (WiscKey/BadgerDB style): values above
// Options.ValueThreshold are appended to a value log and the sstables store a
// fixed-size (fileID, offset, len) pointer instead, keeping keys dense. The
// log is a set of append-only files; compaction reports dead values per file
// (discard stats), and GC rewrites the remaining live entries of a
// mostly-dead file to the log head before deleting it.
//
// Concurrency contract (see DESIGN.md §8):
//   - Appends and discards take only vlog.mu; they never run under e.mu.
//   - A GC rewrite installs the moved pointer into the active memtable under
//     e.mu (exclusive), and the file is deleted only after every live record
//     was either rewritten or found dead.
//   - The file set is copy-on-write: rotation and deleteFile (both rare)
//     replace the map, never mutate it. An iterator captures the map under the
//     same e.mu.RLock as the rest of its snapshot and resolves pointers
//     against that capture, whenever it is asked for a value. A file deleted
//     before the snapshot held only entries the snapshot sees shadowed (every
//     replacement pointer was installed, under the exclusive lock, before the
//     deletion), so none is surfaced; a file deleted after it is still in the
//     captured map, which keeps its bytes alive. A surfaced pointer that does
//     not resolve is therefore corruption, not a race.
//   - Point reads (Engine.Get) resolve against the current file set and
//     retry from a fresh snapshot on errVlogFileGone instead.

// errVlogFileGone reports a pointer into a value-log file that is not in the
// file set it was resolved against. For point reads this is a retry signal
// (the rewrite committed a fresh pointer before the deletion).
var errVlogFileGone = errors.New("lsm: value-log file deleted by GC")

// valuePointer locates a value in the log. It is encoded into Entry.Value
// (with Entry.vptr set) as 12 big-endian bytes.
type valuePointer struct {
	fileID uint32
	offset uint32
	length uint32
}

const valuePointerLen = 12

func encodeValuePointer(p valuePointer) []byte {
	b := make([]byte, valuePointerLen)
	binary.BigEndian.PutUint32(b[0:4], p.fileID)
	binary.BigEndian.PutUint32(b[4:8], p.offset)
	binary.BigEndian.PutUint32(b[8:12], p.length)
	return b
}

func decodeValuePointer(b []byte) (valuePointer, error) {
	if len(b) != valuePointerLen {
		return valuePointer{}, fmt.Errorf("lsm: bad value pointer length %d", len(b))
	}
	return valuePointer{
		fileID: binary.BigEndian.Uint32(b[0:4]),
		offset: binary.BigEndian.Uint32(b[4:8]),
		length: binary.BigEndian.Uint32(b[8:12]),
	}, nil
}

// vlogFile is one append-only segment. Records are self-describing —
// [keyLen u32][valLen u32][key][val] — so GC can iterate a file without
// consulting the sstables. totalBytes and discardBytes count value payload
// bytes; their ratio drives GC candidate selection.
type vlogFile struct {
	id           uint32
	buf          []byte
	totalBytes   int64
	discardBytes int64
}

const vlogRecordHeaderLen = 8

// valueLog is the append-only value store. It has its own mutex; the lock
// order is e.mu before vlog.mu (ApplyBatch appends before taking e.mu, reads
// resolve after releasing it, and nothing holding vlog.mu ever takes e.mu).
type valueLog struct {
	mu sync.RWMutex
	// files is copy-on-write (see the concurrency contract above): a map once
	// published is never mutated, only the files it points at are, under mu.
	files    map[uint32]*vlogFile
	activeID uint32
	fileSize int64
	// dir, when non-nil, mirrors every append into a durable file per
	// segment, synced eagerly — a value record must be durable before the
	// WAL record referencing it can be (ApplyBatch separates values before
	// the WAL append, so program order gives the ordering for free).
	dir *Dir
}

func newValueLog(fileSize int64, dir *Dir) *valueLog {
	vl := &valueLog{files: map[uint32]*vlogFile{}, activeID: 1, fileSize: fileSize, dir: dir}
	vl.files[1] = &vlogFile{id: 1}
	return vl
}

// recoverValueLog rebuilds the log from the durable files in dir. The file
// set comes from the directory, not the manifest — segments created after
// the last manifest install hold values the replayed WAL references.
// Discard stats are seeded from the manifest where it lists the file (they
// are advisory, steering GC candidate order). The active file is the
// highest-numbered one present.
func recoverValueLog(fileSize int64, dir *Dir, m *manifest) *valueLog {
	vl := &valueLog{files: map[uint32]*vlogFile{}, activeID: 1, fileSize: fileSize, dir: dir}
	discard := make(map[uint32]int64, len(m.vlogFiles))
	for _, mf := range m.vlogFiles {
		discard[mf.id] = mf.discardBytes
	}
	for _, name := range dir.List("vlog-") {
		var id uint32
		if _, err := fmt.Sscanf(name, "vlog-%d", &id); err != nil {
			continue
		}
		data, _ := dir.ReadFile(name)
		f := &vlogFile{id: id, buf: data}
		for off := 0; off+vlogRecordHeaderLen <= len(data); {
			keyLen := int(binary.BigEndian.Uint32(data[off : off+4]))
			valLen := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
			end := off + vlogRecordHeaderLen + keyLen + valLen
			if end > len(data) {
				break // defensive: appends sync eagerly, so no torn tails
			}
			f.totalBytes += int64(valLen)
			off = end
		}
		if d, ok := discard[id]; ok {
			f.discardBytes = d
			if f.discardBytes > f.totalBytes {
				f.discardBytes = f.totalBytes
			}
		}
		vl.files[id] = f
		if id > vl.activeID {
			vl.activeID = id
		}
	}
	if vl.files[vl.activeID] == nil {
		vl.files[vl.activeID] = &vlogFile{id: vl.activeID}
	}
	return vl
}

// manifestState snapshots the file set for a manifest install, sorted by id
// so same-state manifests are byte-identical.
func (vl *valueLog) manifestState() (uint32, []manifestVlogFile) {
	vl.mu.RLock()
	active := vl.activeID
	out := make([]manifestVlogFile, 0, len(vl.files))
	for _, f := range vl.files {
		out = append(out, manifestVlogFile{id: f.id, totalBytes: f.totalBytes, discardBytes: f.discardBytes})
	}
	vl.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return active, out
}

// append writes key/val to the active file and returns its pointer, rotating
// to a new file when the active one is full.
func (vl *valueLog) append(key, val []byte) valuePointer {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	f := vl.files[vl.activeID]
	if int64(len(f.buf)) >= vl.fileSize {
		vl.activeID++
		f = &vlogFile{id: vl.activeID}
		files := vl.copyFilesLocked()
		files[f.id] = f
		vl.files = files
	}
	off := uint32(len(f.buf))
	var hdr [vlogRecordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(key)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(val)))
	f.buf = append(f.buf, hdr[:]...)
	f.buf = append(f.buf, key...)
	f.buf = append(f.buf, val...)
	f.totalBytes += int64(len(val))
	if vl.dir != nil {
		name := vlogFileName(f.id)
		vl.dir.Append(name, f.buf[off:])
		vl.dir.Sync(name)
	}
	return valuePointer{fileID: f.id, offset: off, length: uint32(len(val))}
}

// copyFilesLocked returns a private copy of the file set for the caller to
// edit and publish. Caller holds vl.mu exclusively.
func (vl *valueLog) copyFilesLocked() map[uint32]*vlogFile {
	files := make(map[uint32]*vlogFile, len(vl.files)+1)
	for id, f := range vl.files {
		files[id] = f
	}
	return files
}

// fileSet returns the current file set, for an iterator's snapshot.
func (vl *valueLog) fileSet() map[uint32]*vlogFile {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	return vl.files
}

// get resolves a pointer against the current file set (see read).
func (vl *valueLog) get(p valuePointer) ([]byte, error) {
	return vl.read(vl.fileSet(), p)
}

// read resolves a pointer to its value against files, a file set obtained
// from fileSet. The returned slice aliases the file's buffer — immutable once
// appended, and kept alive by the alias even after GC deletes the file — so
// callers must clone before handing it to code that may mutate it. A file
// missing from the set yields errVlogFileGone. vl.mu is held only to read the
// buffer's header, which an append to the active file replaces.
func (vl *valueLog) read(files map[uint32]*vlogFile, p valuePointer) ([]byte, error) {
	f, ok := files[p.fileID]
	if !ok {
		return nil, errVlogFileGone
	}
	vl.mu.RLock()
	buf := f.buf
	vl.mu.RUnlock()
	if int64(p.offset)+vlogRecordHeaderLen > int64(len(buf)) {
		return nil, fmt.Errorf("lsm: value pointer %+v out of bounds (file has %d bytes)", p, len(buf))
	}
	keyLen := int64(binary.BigEndian.Uint32(buf[p.offset : p.offset+4]))
	start := int64(p.offset) + vlogRecordHeaderLen + keyLen
	end := start + int64(p.length)
	if end > int64(len(buf)) {
		return nil, fmt.Errorf("lsm: value pointer %+v out of bounds (file has %d bytes)", p, len(buf))
	}
	return buf[start:end:end], nil
}

// discard records that a pointer's value is dead (its key was overwritten,
// deleted, or dropped by compaction). Discards against already-deleted files
// are no-ops.
func (vl *valueLog) discard(p valuePointer) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	if f, ok := vl.files[p.fileID]; ok {
		f.discardBytes += int64(p.length)
		if f.discardBytes > f.totalBytes {
			f.discardBytes = f.totalBytes
		}
	}
}

// pickGC returns the lowest-id non-active file whose discard ratio meets
// threshold. Lowest-id-first keeps GC order deterministic.
func (vl *valueLog) pickGC(threshold float64) (uint32, bool) {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	best := uint32(0)
	for id, f := range vl.files {
		if id == vl.activeID || f.totalBytes == 0 {
			continue
		}
		if float64(f.discardBytes)/float64(f.totalBytes) >= threshold {
			if best == 0 || id < best {
				best = id
			}
		}
	}
	return best, best != 0
}

// vlogRecord is one decoded record of a file, with the pointer that sstable
// entries referencing it would carry.
type vlogRecord struct {
	key []byte
	val []byte
	ptr valuePointer
}

// records decodes every record of a file. Non-active files are immutable, so
// the returned slices alias the file's buffer safely; a missing file returns
// nil.
func (vl *valueLog) records(id uint32) []vlogRecord {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	f, ok := vl.files[id]
	if !ok {
		return nil
	}
	var out []vlogRecord
	for off := 0; off < len(f.buf); {
		keyLen := int(binary.BigEndian.Uint32(f.buf[off : off+4]))
		valLen := int(binary.BigEndian.Uint32(f.buf[off+4 : off+8]))
		keyStart := off + vlogRecordHeaderLen
		valStart := keyStart + keyLen
		out = append(out, vlogRecord{
			key: f.buf[keyStart:valStart],
			val: f.buf[valStart : valStart+valLen],
			ptr: valuePointer{fileID: id, offset: uint32(off), length: uint32(valLen)},
		})
		off = valStart + valLen
	}
	return out
}

// deleteFile removes a fully-GC'd file and returns its payload bytes (the
// space reclaimed). The durable mirror is removed with it — callers must
// first force any WAL records carrying the relocated pointers to durability
// (see Engine.walSyncBarrier).
func (vl *valueLog) deleteFile(id uint32) int64 {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	f, ok := vl.files[id]
	if !ok || id == vl.activeID {
		return 0
	}
	files := vl.copyFilesLocked()
	delete(files, id)
	vl.files = files
	if vl.dir != nil {
		vl.dir.Remove(vlogFileName(id))
	}
	return f.totalBytes
}

// vlogStats is a snapshot of log-wide occupancy.
type vlogStats struct {
	files     int
	liveBytes int64
	deadBytes int64
}

func (vl *valueLog) stats() vlogStats {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	s := vlogStats{files: len(vl.files)}
	for _, f := range vl.files {
		s.liveBytes += f.totalBytes - f.discardBytes
		s.deadBytes += f.discardBytes
	}
	return s
}

// --- engine-side GC -------------------------------------------------------

// VlogGC runs value-log garbage collection until no file meets the discard
// threshold. It takes the compaction single-flight lock, so it never
// overlaps a compaction (whose discard reports it consumes).
func (e *Engine) VlogGC() {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.runVlogGC()
}

// runVlogGC drains GC candidates. The caller holds e.compactMu (NOT
// e.mu — the rewrite work below takes e.mu itself, briefly, per entry).
func (e *Engine) runVlogGC() {
	for i := 0; i < 64; i++ { // bound runaway loops defensively
		id, ok := e.vlog.pickGC(vlogGCDiscardRatio)
		if !ok {
			return
		}
		e.writeMetrics.VlogGCRounds.Inc(1)
		if !e.rewriteVlogFile(id) {
			return
		}
	}
}

// rewriteVlogFile relocates the live records of one value-log file to the log
// head and deletes the file. It reports whether the round completed (an
// injected lsm.vlog.gc.error aborts mid-file, leaving the file in place —
// nothing is lost, because deletion only ever follows a complete pass).
//
// Per record the protocol is: snapshot-check liveness under RLock (the
// current newest version must still reference this exact pointer), append
// the value to the log head, then re-check and install the moved pointer
// into the active memtable under the exclusive lock. The re-check is three
// cheap probes — active memtable, immutable queue, and the bloom filters of
// L0 tables created after the snapshot — because any write racing the
// rewrite must surface in one of those before compaction (which we exclude
// via compactMu) can move it deeper. A record that raced a write is simply
// skipped; the file survives to the next GC round.
func (e *Engine) rewriteVlogFile(id uint32) bool {
	recs := e.vlog.records(id)
	skipped := false
	for _, rec := range recs {
		// An injected GC failure aborts the round mid-rewrite. Acked writes
		// stay readable: pointers move only after their new record is durable,
		// and the file outlives the abort.
		if e.opts.Faults.Should("lsm.vlog.gc.error") {
			return false
		}
		live, minNewID := e.vlogRecordLive(rec)
		if !live {
			continue
		}
		newPtr := e.vlog.append(rec.key, rec.val)
		if e.installRewrittenPointer(rec.key, newPtr, minNewID) {
			e.writeMetrics.VlogGCRewritten.Inc(1)
		} else {
			// The install lost a race with a fresh write; the new record is
			// orphaned garbage and the old file must survive this round.
			e.vlog.discard(newPtr)
			skipped = true
		}
	}
	if skipped {
		return true // file stays; its remaining live records retry later
	}
	// The relocated pointers were WAL-logged by their installs; force that
	// tail durable before the old file disappears, so no crash can leave a
	// durable pointer aimed at a deleted file.
	e.walSyncBarrier()
	reclaimed := e.vlog.deleteFile(id)
	e.writeMetrics.VlogGCReclaimed.Inc(reclaimed)
	return true
}

// vlogRecordLive reports whether rec's pointer is still what a read of its
// key resolves to, plus the engine's next table id at snapshot time (used by
// the install-side re-check to spot L0 tables that appeared afterwards).
func (e *Engine) vlogRecordLive(rec vlogRecord) (bool, uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.mu.closed {
		return false, 0
	}
	minNewID := e.mu.nextID
	ent, ok := e.getRawLocked(rec.key)
	if !ok || ent.Tombstone || !ent.vptr {
		return false, minNewID
	}
	cur, err := decodeValuePointer(ent.Value)
	if err != nil {
		return false, minNewID
	}
	return cur == rec.ptr, minNewID
}

// getRawLocked probes mem → imm → levels for the newest version of key
// without resolving value pointers. Caller holds e.mu (either mode). The
// block cache is bypassed: GC liveness checks must not evict under the lock.
func (e *Engine) getRawLocked(key []byte) (Entry, bool) {
	if ent, ok := e.mu.mem.get(key); ok {
		return ent, true
	}
	for _, j := range e.mu.imm {
		if ent, ok := j.mem.get(key); ok {
			return ent, true
		}
	}
	for _, t := range e.mu.levels[0] {
		if !t.filter.mayContain(key) {
			continue
		}
		if ent, ok := t.get(key, nil); ok {
			return ent, true
		}
	}
	for lvl := 1; lvl < numLevels; lvl++ {
		tables := e.mu.levels[lvl]
		i := sortSearchTables(tables, key)
		if i < 0 {
			continue
		}
		if ent, ok := tables[i].get(key, nil); ok {
			return ent, true
		}
	}
	return Entry{}, false
}

// installRewrittenPointer publishes a GC-moved pointer into the active
// memtable, unless a write newer than the liveness snapshot may exist (in
// the memtable, the immutable queue, or an L0 table with id >= minNewID that
// may contain the key). The moved value is logically identical, so neither
// the write epoch nor the hot cache is touched.
func (e *Engine) installRewrittenPointer(key []byte, ptr valuePointer, minNewID uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mu.closed {
		return false
	}
	if _, ok := e.mu.mem.get(key); ok {
		return false
	}
	for _, j := range e.mu.imm {
		if _, ok := j.mem.get(key); ok {
			return false
		}
	}
	for _, t := range e.mu.levels[0] {
		if t.id >= minNewID && t.filter.mayContain(key) {
			return false
		}
	}
	ent := Entry{Key: cloneBytes(key), Value: encodeValuePointer(ptr), vptr: true}
	// The moved pointer must survive a crash like any other write: WAL it
	// before it becomes visible, in the same critical section.
	if e.mu.wal != nil {
		e.walAppendLocked(appendEntry(nil, ent))
	}
	// Its own sequence number: an iterator that predates the move keeps
	// reading the old pointer, against the file set it captured.
	e.mu.seq++
	e.mu.mem.set(ent, e.mu.seq, e.snapSeq.Load()) // a new key: mem.get above ruled out a resident entry
	e.mu.metrics.MemTableBytes = e.mu.mem.sizeB
	return true
}
