package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Entry is a single key-value record. A tombstone marks a deletion that
// shadows older versions of the key in lower levels until compacted away.
// When vptr is set, Value holds an encoded valuePointer into the value log
// instead of the value itself; the flag travels opaquely through memtables,
// sstables, and compactions, and is resolved only at the read boundary.
type Entry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
	vptr      bool
}

// size returns the approximate on-disk footprint of the entry.
func (e Entry) size() int64 { return int64(len(e.Key) + len(e.Value) + 16) }

// Block encoding: entries are packed into ~blockTargetBytes segments of
// [flags u8][keyLen u32][valLen u32][key][val], with a per-table index of
// each block's first key. A point read touches one block; the block cache
// stores decoded blocks keyed by (tableID, blockIdx) so a hot block is
// decoded once.
const (
	blockTargetBytes   = 2048
	entryHeaderLen     = 9
	entryFlagTombstone = 1 << 0
	entryFlagVptr      = 1 << 1
)

// ssTable is an immutable sorted run stored as encoded blocks. In a
// disk-backed engine the blocks would live in a file; here they are
// in-memory byte slices, which preserves every property the system above
// cares about (sorted immutable runs, per-level overlap invariants, block
// decode cost on the read path, compaction byte accounting).
type ssTable struct {
	id         uint64
	blocks     [][]byte
	firstKeys  [][]byte // firstKeys[i] = first key of blocks[i]
	numEntries int
	sizeB      int64
	minKey     []byte
	maxKey     []byte
	filter     *bloomFilter
}

func newSSTable(id uint64, entries []Entry) *ssTable {
	t := &ssTable{id: id, numEntries: len(entries), filter: newBloomFilter(entries)}
	var block []byte
	var blockFirst []byte
	flush := func() {
		if len(block) > 0 {
			t.blocks = append(t.blocks, block)
			t.firstKeys = append(t.firstKeys, blockFirst)
			block, blockFirst = nil, nil
		}
	}
	for _, e := range entries {
		if blockFirst == nil {
			blockFirst = e.Key
		}
		block = appendEntry(block, e)
		t.sizeB += e.size()
		if len(block) >= blockTargetBytes {
			flush()
		}
	}
	flush()
	if len(entries) > 0 {
		t.minKey = entries[0].Key
		t.maxKey = entries[len(entries)-1].Key
	}
	return t
}

func appendEntry(b []byte, e Entry) []byte {
	var flags byte
	if e.Tombstone {
		flags |= entryFlagTombstone
	}
	if e.vptr {
		flags |= entryFlagVptr
	}
	var hdr [entryHeaderLen]byte
	hdr[0] = flags
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(e.Key)))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(e.Value)))
	b = append(b, hdr[:]...)
	b = append(b, e.Key...)
	b = append(b, e.Value...)
	return b
}

// entryAt returns the entry encoded at off in a block and the offset of the
// one after it, reading the header in place: nothing is copied and the key and
// value alias the block. The block must be well formed — built by newSSTable,
// or already through decodeBlock.
func entryAt(b []byte, off int) (e Entry, next int) {
	keyStart := off + entryHeaderLen
	valStart := keyStart + int(binary.BigEndian.Uint32(b[off+1:off+5]))
	next = valStart + int(binary.BigEndian.Uint32(b[off+5:off+9]))
	return Entry{
		Key:       b[keyStart:valStart],
		Value:     b[valStart:next],
		Tombstone: b[off]&entryFlagTombstone != 0,
		vptr:      b[off]&entryFlagVptr != 0,
	}, next
}

// decodeBlock parses one encoded block that came from a file, trusting none
// of its lengths: a header or a length that runs past the buffer, or a flag
// bit this build does not write, is ErrCorruption. The returned entries alias
// the buffer (immutable); callers clone before handing bytes to users.
func decodeBlock(b []byte) ([]Entry, error) {
	// Validate and count the entries from their headers first, so the slice is
	// sized once rather than grown entry by entry.
	n := 0
	for off := 0; off < len(b); n++ {
		if len(b)-off < entryHeaderLen {
			return nil, fmt.Errorf("%w: entry header at offset %d runs past the %d-byte block", ErrCorruption, off, len(b))
		}
		if b[off]&^(entryFlagTombstone|entryFlagVptr) != 0 {
			return nil, fmt.Errorf("%w: entry at offset %d has unknown flags %#x", ErrCorruption, off, b[off])
		}
		end := int64(off) + entryHeaderLen +
			int64(binary.BigEndian.Uint32(b[off+1:off+5])) + int64(binary.BigEndian.Uint32(b[off+5:off+9]))
		if end > int64(len(b)) {
			return nil, fmt.Errorf("%w: entry at offset %d ends at %d, past the %d-byte block", ErrCorruption, off, end, len(b))
		}
		off = int(end)
	}
	return appendBlockEntries(make([]Entry, 0, n), b), nil
}

// appendBlockEntries appends the entries of a well-formed block (see entryAt).
func appendBlockEntries(out []Entry, b []byte) []Entry {
	for off := 0; off < len(b); {
		var e Entry
		e, off = entryAt(b, off)
		out = append(out, e)
	}
	return out
}

// blockFor returns the index of the block that could contain key, or -1.
func (t *ssTable) blockFor(key []byte) int {
	// First block whose firstKey is > key, minus one.
	i := sort.Search(len(t.firstKeys), func(i int) bool {
		return bytes.Compare(t.firstKeys[i], key) > 0
	})
	return i - 1
}

// blockEntries returns the decoded entries of block i, consulting bc when
// non-nil. Cache fills (and the evictions they trigger) happen inside bc;
// callers on a locked path pass nil.
func (t *ssTable) blockEntries(i int, bc *blockCache) (ents []Entry, cached bool) {
	if bc != nil {
		if ents, ok := bc.get(t.id, i); ok {
			return ents, true
		}
	}
	// Count the entries from their headers first, so the slice is sized once.
	n := 0
	for off := 0; off < len(t.blocks[i]); n++ {
		_, off = entryAt(t.blocks[i], off)
	}
	ents = appendBlockEntries(make([]Entry, 0, n), t.blocks[i])
	if bc != nil {
		bc.addBlock(t.id, i, ents, int64(len(t.blocks[i])))
	}
	return ents, false
}

// get returns the entry for key, if present in this table. bc, when non-nil,
// serves and fills the block cache; hit/miss accounting is the caller's
// (only unlocked point-read paths pass a cache).
func (t *ssTable) get(key []byte, bc *blockCache) (Entry, bool) {
	bi := t.blockFor(key)
	if bi < 0 {
		return Entry{}, false
	}
	ents, _ := t.blockEntries(bi, bc)
	i := sort.Search(len(ents), func(i int) bool {
		return bytes.Compare(ents[i].Key, key) >= 0
	})
	if i < len(ents) && bytes.Equal(ents[i].Key, key) {
		return ents[i], true
	}
	return Entry{}, false
}

// getCounting is get with block-cache hit/miss accounting against rm.
func (t *ssTable) getCounting(key []byte, bc *blockCache, rm *ReadMetrics) (Entry, bool) {
	if bc == nil {
		return t.get(key, nil)
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return Entry{}, false
	}
	ents, cached := t.blockEntries(bi, bc)
	if cached {
		rm.BlockCacheHits.Inc(1)
	} else {
		rm.BlockCacheMisses.Inc(1)
	}
	i := sort.Search(len(ents), func(i int) bool {
		return bytes.Compare(ents[i].Key, key) >= 0
	})
	if i < len(ents) && bytes.Equal(ents[i].Key, key) {
		return ents[i], true
	}
	return Entry{}, false
}

// entries decodes the whole table in key order (compaction input, scans).
func (t *ssTable) entries() []Entry {
	out := make([]Entry, 0, t.numEntries)
	for _, b := range t.blocks {
		out = appendBlockEntries(out, b)
	}
	return out
}

// overlaps reports whether the table's key range intersects [lo, hi]. A nil
// hi means +infinity; a nil lo means -infinity.
func (t *ssTable) overlaps(lo, hi []byte) bool {
	if t.numEntries == 0 {
		return false
	}
	if hi != nil && bytes.Compare(t.minKey, hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.maxKey, lo) < 0 {
		return false
	}
	return true
}

// sortSearchTables returns the index of the one table in a sorted,
// non-overlapping (L1+) level that can contain key, or -1.
func sortSearchTables(tables []*ssTable, key []byte) int {
	i := sort.Search(len(tables), func(i int) bool {
		return bytes.Compare(tables[i].maxKey, key) >= 0
	})
	if i >= len(tables) || bytes.Compare(tables[i].minKey, key) > 0 {
		return -1
	}
	return i
}

func (t *ssTable) String() string {
	return fmt.Sprintf("sst-%d[%q,%q] %dB", t.id, t.minKey, t.maxKey, t.sizeB)
}

// mergeRuns merges sorted runs into a single sorted run. Runs earlier in the
// slice take precedence for duplicate keys (they are newer). If dropTombstones
// is set, tombstones are elided from the output (valid only when merging into
// the bottommost level). onDrop, when non-nil, observes every entry the merge
// discards — shadowed older versions and bottommost tombstones — so the
// caller can report value-log discard stats for them.
func mergeRuns(runs [][]Entry, dropTombstones bool, onDrop func(Entry)) []Entry {
	type cursor struct {
		run []Entry
		idx int
	}
	cursors := make([]cursor, len(runs))
	for i, r := range runs {
		cursors[i] = cursor{run: r}
	}
	var out []Entry
	for {
		best := -1
		for i := range cursors {
			c := &cursors[i]
			if c.idx >= len(c.run) {
				continue
			}
			if best == -1 || bytes.Compare(c.run[c.idx].Key, cursors[best].run[cursors[best].idx].Key) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		e := cursors[best].run[cursors[best].idx]
		cursors[best].idx++
		// Skip older duplicates in other runs.
		for i := range cursors {
			c := &cursors[i]
			for c.idx < len(c.run) && bytes.Equal(c.run[c.idx].Key, e.Key) {
				if onDrop != nil {
					onDrop(c.run[c.idx])
				}
				c.idx++
			}
		}
		if e.Tombstone && dropTombstones {
			if onDrop != nil {
				onDrop(e)
			}
			continue
		}
		out = append(out, e)
	}
	return out
}
