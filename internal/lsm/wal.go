package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The write-ahead log is a sequence of numbered segment files
// (wal-000001.log, ...). Each segment opens with a header
//
//	[magic "WALS"][format version u32]
//
// and is followed by records framed as
//
//	[crc32c u32][length u32][payload]
//
// where the CRC (Castagnoli) covers the payload and the payload is a batch of
// entries in the encoding sstable blocks use (appendEntry / decodeBlock), each
// key sharing its prefix with the key before it in the batch. Records are
// appended inside ApplyBatch's critical section, so WAL order is exactly
// memtable apply order. Segments rotate on size and at every memtable
// rotation, so each memtable's contents live in a dense run of segments; the
// manifest records the lowest segment still holding unflushed data and
// recovery replays from there. Everything below that floor is deleted after
// the manifest installs.
//
// Sync policy: WALBytesPerSync == 0 syncs after every record (no acked write
// can be lost); > 0 syncs once that many bytes have accumulated, leaving an
// unsynced tail a crash can tear mid-record. Replay verifies each record's
// CRC and truncates at the first torn or corrupt record, dropping everything
// after it.

const (
	walRecordHeaderLen  = 8
	walSegmentHeaderLen = 8
	walMagic            = uint32('W')<<24 | uint32('A')<<16 | uint32('L')<<8 | uint32('S')
	walFormatVersion    = 2
)

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

func walSegmentName(seg uint64) string { return fmt.Sprintf("wal-%06d.log", seg) }

// walWriter appends framed records to the active segment. It is not
// internally synchronized; the engine serializes access under e.mu.
type walWriter struct {
	dir          *Dir
	seg          uint64 // active segment number
	segBytes     int64  // bytes written to the active segment
	segmentSize  int64
	bytesPerSync int64
	unsynced     int64 // bytes appended since the last sync
	fsyncs       int64 // cumulative syncs issued
}

func newWALWriter(dir *Dir, seg uint64, segmentSize, bytesPerSync int64) *walWriter {
	return &walWriter{dir: dir, seg: seg, segmentSize: segmentSize, bytesPerSync: bytesPerSync}
}

// append frames payload into the active segment and applies the sync policy.
// It returns the framed size (header + payload) and whether a sync was
// issued. Rotation happens before the append when the active segment is
// already at its size target, so a record is never split across segments.
func (w *walWriter) append(payload []byte) (framed int64, synced bool) {
	if w.segBytes >= w.segmentSize {
		w.rotate()
	}
	name := walSegmentName(w.seg)
	if w.segBytes == 0 {
		var sh [walSegmentHeaderLen]byte
		binary.BigEndian.PutUint32(sh[0:4], walMagic)
		binary.BigEndian.PutUint32(sh[4:8], walFormatVersion)
		w.dir.Append(name, sh[:])
		w.segBytes += walSegmentHeaderLen
		w.unsynced += walSegmentHeaderLen
	}
	var hdr [walRecordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], crc32.Checksum(payload, crc32cTable))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	w.dir.Append(name, hdr[:])
	w.dir.Append(name, payload)
	framed = int64(walRecordHeaderLen + len(payload))
	w.segBytes += framed
	w.unsynced += framed
	if w.bytesPerSync == 0 || w.unsynced >= w.bytesPerSync {
		w.sync()
		synced = true
	}
	return framed, synced
}

// sync makes the active segment durable up to its current length.
func (w *walWriter) sync() {
	if w.unsynced == 0 {
		return
	}
	w.dir.Sync(walSegmentName(w.seg))
	w.unsynced = 0
	w.fsyncs++
}

// rotate syncs and closes the active segment and starts the next one. The
// engine calls it at every memtable rotation (in addition to the size-based
// rotation in append), so a memtable's records span a dense segment run.
func (w *walWriter) rotate() {
	w.sync()
	w.seg++
	w.segBytes = 0
}

// deleteSegmentsBelow removes segments numbered below floor. Only called
// after a manifest recording floor as the minimum unflushed segment has
// installed, so no replay can need them.
func (w *walWriter) deleteSegmentsBelow(floor uint64) {
	for _, seg := range walSegments(w.dir) {
		if seg < floor {
			w.dir.Remove(walSegmentName(seg))
		}
	}
}

// walSegments lists the WAL segment numbers present in dir, sorted.
func walSegments(dir *Dir) []uint64 {
	var segs []uint64
	for _, name := range dir.List("wal-") {
		var seg uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &seg); err != nil {
			continue
		}
		segs = append(segs, seg)
	}
	return segs
}

// replayWAL decodes every record of the segments numbered >= fromSeg, in
// segment order, calling apply for each record's entries. Replay stops —
// dropping the rest of the log — at the first torn or corrupt record: a
// record whose header or payload is cut short, or whose CRC does not match.
// That is the crash-recovery contract for a tail written under a relaxed
// sync policy; the lost suffix was never acknowledged as durable. A segment
// whose header carries the right magic but a different format version is a
// hard error (the log was written by an incompatible engine, not torn by a
// crash), and so is a record that passes its CRC but does not decode. The
// returned count is the number of records applied.
func replayWAL(dir *Dir, fromSeg uint64, apply func(entries []Entry)) (int, error) {
	records := 0
	for _, seg := range walSegments(dir) {
		if seg < fromSeg {
			continue
		}
		data, ok := dir.ReadFile(walSegmentName(seg))
		if !ok {
			continue
		}
		if len(data) < walSegmentHeaderLen {
			return records, nil // torn segment header: no durable records here
		}
		if binary.BigEndian.Uint32(data[0:4]) != walMagic {
			return records, nil // garbage where the header should be: torn
		}
		if v := binary.BigEndian.Uint32(data[4:8]); v != walFormatVersion {
			return records, fmt.Errorf("%w: wal segment %d has format version %d, want %d",
				ErrVersionMismatch, seg, v, walFormatVersion)
		}
		for off := walSegmentHeaderLen; off < len(data); {
			if off+walRecordHeaderLen > len(data) {
				return records, nil // torn record header
			}
			sum := binary.BigEndian.Uint32(data[off : off+4])
			length := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
			start := off + walRecordHeaderLen
			if start+length > len(data) {
				return records, nil // torn payload
			}
			payload := data[start : start+length]
			if crc32.Checksum(payload, crc32cTable) != sum {
				return records, nil // corrupt record: truncate here
			}
			ents, err := decodeBlock(payload)
			if err != nil {
				// The CRC vouched for these bytes, so this is not a torn tail.
				return records, fmt.Errorf("wal segment %d, record at offset %d: %w", seg, off, err)
			}
			apply(ents)
			records++
			off = start + length
		}
	}
	return records, nil
}
