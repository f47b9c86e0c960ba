package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
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

// size returns the entry's logical footprint: its key and value bytes and a
// fixed 16 for the header, not the bytes its encoding takes in a block. Every
// byte counter (level, flush, compaction and split sizes, and through them
// admission and compaction picking) sums it, so the block format can change
// without moving any of them.
func (e Entry) size() int64 { return int64(len(e.Key) + len(e.Value) + 16) }

// Block encoding: entries are packed into ~blockTargetBytes segments of
//
//	[flags u8][shared uvarint][unshared uvarint][valLen uvarint][unshared key bytes][val]
//
// where an entry's key is the first shared bytes of the key before it followed
// by its unshared bytes. A block's first entry shares nothing, so its key lies
// whole in the block: the per-table index of each block's first key aliases
// the block, a seek starts its walk at a block's head, and a table file, the
// concatenation of its blocks, decodes front to back. A walk reads the entry
// headers in place; only a key that shares a prefix is rebuilt, in a buffer
// its iterator source lends (iterSource.lend). Tombstone is the only flag
// bit; any other is corruption.
const (
	blockTargetBytes   = 2048
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
	sizeB      int64 // the entries' logical bytes (Entry.size), not len(blocks)
	minKey     []byte
	maxKey     []byte
}

// newSSTable encodes entries, which must be in key order, into a table. The
// table's keys alias its own blocks, never the entries: a flushed memtable's
// arena or a compaction's input tables are not kept alive by the table built
// from them. The block first keys and min key are whole in their blocks; the
// max key, which shares its prefix, is the table's own copy.
//
// A block ends with the entry that brings it to blockTargetBytes. Each is
// sized before it is encoded and allocated exactly, on its own: growth
// capacity would be kept for the table's life, and a value a caller keeps
// pins its block, not the whole table.
func newSSTable(id uint64, entries []Entry) *ssTable {
	t := &ssTable{id: id, numEntries: len(entries)}
	for i := 0; i < len(entries); {
		n, j := 0, i
		var prev []byte
		for ; j < len(entries) && n < blockTargetBytes; j++ {
			n += entryLen(sharedLen(prev, entries[j].Key), entries[j])
			prev = entries[j].Key
		}
		block := make([]byte, 0, n)
		prev = nil
		for _, e := range entries[i:j] {
			block = appendEntry(block, sharedLen(prev, e.Key), e)
			prev = e.Key
			t.sizeB += e.size()
		}
		_, first, _, _, _ := entryAt(block, 0)
		t.blocks = append(t.blocks, block)
		t.firstKeys = append(t.firstKeys, first)
		i = j
	}
	if len(entries) > 0 {
		t.minKey = t.firstKeys[0]
		t.maxKey = bytes.Clone(entries[len(entries)-1].Key)
	}
	return t
}

// sharedLen returns the length of the longest common prefix of a and b.
func sharedLen(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// entryLen is the encoded length of e when it shares shared key bytes with
// the key before it.
func entryLen(shared int, e Entry) int {
	unshared := len(e.Key) - shared
	return 1 + uvarintLen(uint64(shared)) + uvarintLen(uint64(unshared)) +
		uvarintLen(uint64(len(e.Value))) + unshared + len(e.Value)
}

// appendEntry appends e to b, its first shared key bytes left out: they are
// the key before it's.
func appendEntry(b []byte, shared int, e Entry) []byte {
	var flags byte
	if e.Tombstone {
		flags |= entryFlagTombstone
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(shared))
	b = binary.AppendUvarint(b, uint64(len(e.Key)-shared))
	b = binary.AppendUvarint(b, uint64(len(e.Value)))
	b = append(b, e.Key[shared:]...)
	return append(b, e.Value...)
}

// entryAt reads the entry encoded at off in a block, in place: how many key
// bytes it shares with the key before it, the rest of its key and its value
// (both aliasing the block, capped at their ends), whether it is a tombstone,
// and the offset of the entry after it. The block must be well formed — built
// by newSSTable, or already through decodeBlock.
func entryAt(b []byte, off int) (shared int, suffix, value []byte, tombstone bool, next int) {
	tombstone = b[off]&entryFlagTombstone != 0
	var lens [3]int // shared, unshared, value: uvarints, one byte each under 128
	off++
	for i := range lens {
		c := b[off]
		off++
		x := int(c & 0x7f)
		for shift := 7; c >= 0x80; shift += 7 {
			c = b[off]
			off++
			x |= int(c&0x7f) << shift
		}
		lens[i] = x
	}
	vstart := off + lens[1]
	next = vstart + lens[2]
	return lens[0], b[off:vstart:vstart], b[vstart:next:next], tombstone, next
}

// decodeBlock parses encoded entries that came from a file — an sstable, or a
// WAL record — trusting none of their lengths: a header, uvarint or length
// that runs past the buffer, a uvarint that overflows or is longer than it
// needs to be, a key that shares more bytes than the key before it has (or
// any, for the first entry), or a flag bit this build does not write, is
// ErrCorruption. Each key is rebuilt whole into one slab of the decode's own;
// the values alias the buffer (immutable), and callers clone before handing
// bytes to users.
func decodeBlock(b []byte) ([]Entry, error) {
	// Validate, count the entries and size their keys from the headers first,
	// so the entries and the key slab are allocated once each.
	n, keyBytes, prevLen := 0, 0, 0
	for off := 0; off < len(b); n++ {
		keyLen, next, err := checkEntry(b, off, prevLen)
		if err != nil {
			return nil, err
		}
		keyBytes += keyLen
		prevLen, off = keyLen, next
	}
	out := make([]Entry, 0, n)
	slab := make([]byte, 0, keyBytes)
	var prev []byte
	for off := 0; off < len(b); {
		shared, suffix, value, tombstone, next := entryAt(b, off)
		start := len(slab)
		slab = append(append(slab, prev[:shared]...), suffix...)
		prev = slab[start:len(slab):len(slab)]
		out = append(out, Entry{Key: prev, Value: value, Tombstone: tombstone})
		off = next
	}
	return out, nil
}

// checkEntry checks the entry at off of an untrusted buffer, whose previous
// key is prevLen bytes long, and returns its key's length and the offset of
// the entry after it.
func checkEntry(b []byte, off, prevLen int) (keyLen, next int, err error) {
	if b[off]&^entryFlagTombstone != 0 {
		return 0, 0, fmt.Errorf("%w: entry at offset %d has unknown flags %#x", ErrCorruption, off, b[off])
	}
	pos := off + 1
	var lens [3]int // shared, unshared, value
	for i := range lens {
		x, n := binary.Uvarint(b[pos:])
		switch {
		case n == 0:
			return 0, 0, fmt.Errorf("%w: entry at offset %d: header runs past the %d-byte block", ErrCorruption, off, len(b))
		case n < 0 || n != uvarintLen(x):
			return 0, 0, fmt.Errorf("%w: entry at offset %d: malformed uvarint at offset %d", ErrCorruption, off, pos)
		case x > uint64(len(b)):
			return 0, 0, fmt.Errorf("%w: entry at offset %d: length %d runs past the %d-byte block", ErrCorruption, off, x, len(b))
		}
		lens[i], pos = int(x), pos+n
	}
	if lens[0] > prevLen {
		return 0, 0, fmt.Errorf("%w: entry at offset %d shares %d key bytes, the key before it has %d", ErrCorruption, off, lens[0], prevLen)
	}
	if next = pos + lens[1] + lens[2]; next > len(b) {
		return 0, 0, fmt.Errorf("%w: entry at offset %d ends at %d, past the %d-byte block", ErrCorruption, off, next, len(b))
	}
	return lens[0] + lens[1], next, nil
}

// blockFor returns the index of the block that could contain key, or -1.
func (t *ssTable) blockFor(key []byte) int {
	// First block whose firstKey is > key, minus one.
	i := sort.Search(len(t.firstKeys), func(i int) bool {
		return bytes.Compare(t.firstKeys[i], key) > 0
	})
	return i - 1
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
