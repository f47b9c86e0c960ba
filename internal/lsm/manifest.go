package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The manifest is the engine's durable source of truth for everything outside
// the WAL: which sstables make up each level, how far the WAL has been
// flushed (the minimum segment recovery must replay), the next file ID, and
// the value log's file set with its discard stats. It is rewritten in full on
// every flush and compaction install — the state is small — and installed
// atomically by writing MANIFEST.tmp and renaming over MANIFEST, so a crash
// leaves either the old or the new manifest, never a blend.
//
// Encoding (all big-endian):
//
//	[magic "MANI"][format version u32]
//	[nextID u64][minUnflushedSeg u64][walSeg u64]
//	numLevels x ([count u32][id u64]...)
//	[vlog activeID u32][vlog file count u32]
//	  per file: [id u32][totalBytes u64][discardBytes u64]
//	[crc32c u32 over everything above]

// ErrCorruption reports on-disk state that fails its integrity checks — a
// manifest with a bad CRC, or a value-log file referenced by live data that
// no longer exists. Distinct from a torn WAL tail, which is expected after a
// crash and silently truncated.
var ErrCorruption = errors.New("lsm: corruption detected")

// ErrVersionMismatch reports durable state written by an incompatible engine
// format version. Unlike corruption, the bytes are intact — they just cannot
// be interpreted by this build.
var ErrVersionMismatch = errors.New("lsm: on-disk format version mismatch")

const (
	manifestName        = "MANIFEST"
	manifestTmpName     = "MANIFEST.tmp"
	manifestMagic       = uint32('M')<<24 | uint32('A')<<16 | uint32('N')<<8 | uint32('I')
	manifestVersion     = 1
	manifestHeaderLen   = 8 // magic + version
	manifestChecksumLen = 4
)

func sstFileName(id uint64) string  { return fmt.Sprintf("sst-%06d", id) }
func vlogFileName(id uint32) string { return fmt.Sprintf("vlog-%06d", id) }

// manifestVlogFile is the durable record of one value-log file's occupancy.
// Discard stats are advisory (they steer GC candidate selection); byte
// contents live in the vlog file itself.
type manifestVlogFile struct {
	id           uint32
	totalBytes   int64
	discardBytes int64
}

// manifest is the decoded durable engine state.
type manifest struct {
	nextID          uint64
	minUnflushedSeg uint64 // lowest WAL segment holding unflushed data
	walSeg          uint64 // active WAL segment at install time
	levels          [numLevels][]uint64
	vlogActiveID    uint32
	vlogFiles       []manifestVlogFile
}

func (m *manifest) encode() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, manifestMagic)
	b = binary.BigEndian.AppendUint32(b, manifestVersion)
	b = binary.BigEndian.AppendUint64(b, m.nextID)
	b = binary.BigEndian.AppendUint64(b, m.minUnflushedSeg)
	b = binary.BigEndian.AppendUint64(b, m.walSeg)
	for lvl := 0; lvl < numLevels; lvl++ {
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.levels[lvl])))
		for _, id := range m.levels[lvl] {
			b = binary.BigEndian.AppendUint64(b, id)
		}
	}
	b = binary.BigEndian.AppendUint32(b, m.vlogActiveID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.vlogFiles)))
	for _, f := range m.vlogFiles {
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, uint64(f.totalBytes))
		b = binary.BigEndian.AppendUint64(b, uint64(f.discardBytes))
	}
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crc32cTable))
}

func decodeManifest(b []byte) (*manifest, error) {
	if len(b) < manifestHeaderLen+manifestChecksumLen {
		return nil, fmt.Errorf("%w: manifest truncated to %d bytes", ErrCorruption, len(b))
	}
	body, tail := b[:len(b)-manifestChecksumLen], b[len(b)-manifestChecksumLen:]
	if crc32.Checksum(body, crc32cTable) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorruption)
	}
	if magic := binary.BigEndian.Uint32(body[0:4]); magic != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic %#x", ErrCorruption, magic)
	}
	if v := binary.BigEndian.Uint32(body[4:8]); v != manifestVersion {
		return nil, fmt.Errorf("%w: manifest has format version %d, want %d",
			ErrVersionMismatch, v, manifestVersion)
	}
	r := manifestReader{b: body, off: manifestHeaderLen}
	m := &manifest{}
	m.nextID = r.uint64()
	m.minUnflushedSeg = r.uint64()
	m.walSeg = r.uint64()
	for lvl := 0; lvl < numLevels; lvl++ {
		n := int(r.uint32())
		for i := 0; i < n && !r.bad; i++ {
			m.levels[lvl] = append(m.levels[lvl], r.uint64())
		}
	}
	m.vlogActiveID = r.uint32()
	nFiles := int(r.uint32())
	for i := 0; i < nFiles && !r.bad; i++ {
		m.vlogFiles = append(m.vlogFiles, manifestVlogFile{
			id:           r.uint32(),
			totalBytes:   int64(r.uint64()),
			discardBytes: int64(r.uint64()),
		})
	}
	if r.bad || r.off != len(body) {
		return nil, fmt.Errorf("%w: manifest body malformed", ErrCorruption)
	}
	return m, nil
}

// manifestReader cursors over the manifest body, latching any overrun into
// bad instead of panicking — the CRC already vouched for the bytes, but a
// same-version encoder bug should surface as ErrCorruption, not a crash.
type manifestReader struct {
	b   []byte
	off int
	bad bool
}

func (r *manifestReader) uint32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off : r.off+4])
	r.off += 4
	return v
}

func (r *manifestReader) uint64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off : r.off+8])
	r.off += 8
	return v
}

// installManifest durably replaces the manifest via write-temp-then-rename.
func installManifest(dir *Dir, m *manifest) {
	dir.WriteFileSync(manifestTmpName, m.encode())
	// Rename of a file we just wrote cannot fail; a Dir error here would be a
	// harness bug, not a modeled fault.
	if err := dir.Rename(manifestTmpName, manifestName); err != nil {
		panic(err)
	}
}

// loadManifest reads and decodes the manifest. ok is false when no manifest
// exists (a fresh directory).
func loadManifest(dir *Dir) (*manifest, bool, error) {
	data, ok := dir.ReadFile(manifestName)
	if !ok {
		return nil, false, nil
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, true, err
	}
	return m, true, nil
}

// persistSSTable writes a built table as one durable file: the concatenation
// of its encoded blocks, which decodeBlock parses back into the exact entry
// sequence. Tables are immutable, so a single synced write at build time is
// the whole durability story.
func persistSSTable(dir *Dir, t *ssTable) {
	var buf []byte
	for _, b := range t.blocks {
		buf = append(buf, b...)
	}
	dir.WriteFileSync(sstFileName(t.id), buf)
}

// loadSSTable re-reads a persisted table. Rebuilding via newSSTable re-chunks
// the entries deterministically, so block boundaries, bloom filters, and size
// accounting come back identical to the pre-crash table.
func loadSSTable(dir *Dir, id uint64) (*ssTable, error) {
	data, ok := dir.ReadFile(sstFileName(id))
	if !ok {
		return nil, fmt.Errorf("%w: manifest references missing sstable sst-%06d", ErrCorruption, id)
	}
	ents, err := decodeBlock(data)
	if err != nil {
		return nil, fmt.Errorf("loading sstable sst-%06d: %w", id, err)
	}
	return newSSTable(id, ents), nil
}
