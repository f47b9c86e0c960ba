package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Entry is a single key-value record. A tombstone marks a deletion that
// shadows older versions of the key in lower levels until compacted away.
// Every value is stored inline, whatever its size.
type Entry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

// size returns the approximate on-disk footprint of the entry.
func (e Entry) size() int64 { return int64(len(e.Key) + len(e.Value) + 16) }

// Block encoding: entries are packed into ~blockTargetBytes segments of
// [flags u8][keyLen u32][valLen u32][key][val], with a per-table index of
// each block's first key. A seek touches one block and reads its entry
// headers in place; nothing is decoded into a slice on the read path.
// Tombstone is the only flag bit; any other is corruption.
const (
	blockTargetBytes   = 2048
	entryHeaderLen     = 9
	entryFlagTombstone = 1 << 0
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
}

// newSSTable encodes entries, which must be in key order, into a table. The
// table's keys (block first keys, min and max) alias its own blocks, never the
// entries: a flushed memtable's arena or a compaction's input tables are not
// kept alive by the table built from them.
//
// A block ends with the entry that brings it to blockTargetBytes. Each is
// sized before it is encoded and allocated exactly, on its own: growth
// capacity would be kept for the table's life, and a key a caller keeps pins
// its block, not the whole table.
func newSSTable(id uint64, entries []Entry) *ssTable {
	t := &ssTable{id: id, numEntries: len(entries)}
	var block []byte
	last := 0 // offset of the last entry in block
	for i := 0; i < len(entries); {
		n, j := 0, i
		for ; j < len(entries) && n < blockTargetBytes; j++ {
			n += entryHeaderLen + len(entries[j].Key) + len(entries[j].Value)
		}
		block = make([]byte, 0, n)
		for _, e := range entries[i:j] {
			last = len(block)
			block = appendEntry(block, e)
			t.sizeB += e.size()
		}
		first, _ := entryAt(block, 0)
		t.blocks = append(t.blocks, block)
		t.firstKeys = append(t.firstKeys, first.Key)
		i = j
	}
	if len(entries) > 0 {
		t.minKey = t.firstKeys[0]
		maxEnt, _ := entryAt(t.blocks[len(t.blocks)-1], last)
		t.maxKey = maxEnt.Key
	}
	return t
}

func appendEntry(b []byte, e Entry) []byte {
	var flags byte
	if e.Tombstone {
		flags |= entryFlagTombstone
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
		if b[off]&^entryFlagTombstone != 0 {
			return nil, fmt.Errorf("%w: entry at offset %d has unknown flags %#x", ErrCorruption, off, b[off])
		}
		end := int64(off) + entryHeaderLen +
			int64(binary.BigEndian.Uint32(b[off+1:off+5])) + int64(binary.BigEndian.Uint32(b[off+5:off+9]))
		if end > int64(len(b)) {
			return nil, fmt.Errorf("%w: entry at offset %d ends at %d, past the %d-byte block", ErrCorruption, off, end, len(b))
		}
		off = int(end)
	}
	out := make([]Entry, 0, n)
	for off := 0; off < len(b); {
		var e Entry
		e, off = entryAt(b, off)
		out = append(out, e)
	}
	return out, nil
}

// blockFor returns the index of the block that could contain key, or -1.
func (t *ssTable) blockFor(key []byte) int {
	// First block whose firstKey is > key, minus one.
	i := sort.Search(len(t.firstKeys), func(i int) bool {
		return bytes.Compare(t.firstKeys[i], key) > 0
	})
	return i - 1
}

// blockSeek returns the offset of the first entry of a well-formed block
// whose key is >= key, or len(b) when every key sorts before it, walking the
// entry headers in place.
func blockSeek(b, key []byte) int {
	off := 0
	for off < len(b) {
		ent, next := entryAt(b, off)
		if bytes.Compare(ent.Key, key) >= 0 {
			break
		}
		off = next
	}
	return off
}

// overlaps reports whether the table's key range intersects [lo, hi]. A nil
// hi means +infinity; a nil lo means -infinity.
func (t *ssTable) overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(t.minKey, hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.maxKey, lo) < 0 {
		return false
	}
	return true
}

func (t *ssTable) String() string {
	return fmt.Sprintf("sst-%d[%q,%q] %dB", t.id, t.minKey, t.maxKey, t.sizeB)
}
