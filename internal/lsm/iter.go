package lsm

import (
	"bytes"
	"fmt"
	"sort"
)

// Iterator is a forward scan over [lo, hi) of a snapshot of the engine. A nil
// hi means scan to the end of the keyspace. Tombstones are resolved: deleted
// keys are not surfaced.
//
// The snapshot is everything NewIter captures under one read lock: the
// engine's batch sequence number, the active and immutable memtables, the
// level slices and the value log's file set. A batch is applied wholly inside
// the exclusive lock, so the captured number never falls inside one, and a
// later batch is invisible because its memtable versions carry a higher
// number (tables and level slices are immutable once published). Nothing is
// copied or decoded until the iterator is positioned on it: a memtable source
// walks the skiplist in place, a table source reads entry headers in place in
// the encoded block, and Value chases a value pointer only when asked. There
// is no Close: a rotated memtable, a compacted-away table and a GC-deleted
// value-log file live exactly as long as an iterator refers to them, and
// iterators are short-lived.
//
// The block cache is not consulted: blocks are resident, the cache holds only
// their decoded []Entry, and an in-place cursor never builds one.
type Iterator struct {
	e      *Engine
	seq    uint64
	vfiles map[uint32]*vlogFile
	lo, hi []byte
	srcs   []iterSource // newest run first: a key's first holder shadows the rest
	cur    *iterSource  // holder of the current entry; nil when exhausted
	err    error
	// buf backs srcs for the common shapes, keeping NewIter at one allocation.
	buf [3]iterSource
}

// iterSource is a cursor over one sorted run: a memtable (mem set) or a
// sorted window of tables — one L0 table, or a whole L1+ level, which opens
// its next table when the last runs out.
type iterSource struct {
	mem  *memTable
	node *skipNode // holds a version visible in the snapshot

	tables      []*ssTable
	ti, bi, off int // table, block within it, offset of the entry within that

	key []byte // current key; nil when the run is exhausted
}

// NewIter returns an iterator over [lo, hi) positioned on the first live key.
// The engine lock is held only to capture the snapshot; positioning — and
// every later step — runs outside it, beside concurrent writers.
func (e *Engine) NewIter(lo, hi []byte) *Iterator {
	it := &Iterator{e: e, lo: lo, hi: hi}
	e.mu.RLock()
	it.seq = e.mu.seq
	e.snapSeq.Store(it.seq) // writers now retain every version at or below it
	mem, imm, levels := e.mu.mem, e.mu.imm, e.mu.levels
	it.vfiles = e.vlog.fileSet()
	e.mu.RUnlock()

	it.srcs = append(it.buf[:0], iterSource{mem: mem})
	// Immutable memtables (rotated, build in flight) are newer than any
	// sstable; the queue is newest-first.
	for _, j := range imm {
		it.srcs = append(it.srcs, iterSource{mem: j.mem})
	}
	// L0 newest-first: any table may overlap the bounds, but the min/max
	// pre-check skips the ones that provably don't.
	for i, t := range levels[0] {
		if t.overlaps(lo, hi) {
			it.srcs = append(it.srcs, iterSource{tables: levels[0][i : i+1]})
		}
	}
	// A sorted level is one source, from its first table that can hold lo —
	// if that table starts below hi.
	for lvl := 1; lvl < numLevels; lvl++ {
		tables := levels[lvl]
		start := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(tables[i].maxKey, lo) >= 0
		})
		if start < len(tables) && (hi == nil || bytes.Compare(tables[start].minKey, hi) < 0) {
			it.srcs = append(it.srcs, iterSource{tables: tables[start:]})
		}
	}
	it.seekSources(lo, false)
	return it
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.cur != nil }

// Key returns the current key. Only valid while Valid() is true. The slice
// aliases immutable engine memory and stays readable after the iterator
// moves on.
func (it *Iterator) Key() []byte { return it.cur.key }

// Value returns the current value, resolving a value-log pointer against the
// snapshot's file set. Only valid while Valid() is true. A pointer that does
// not resolve is corruption (see the contract in vlog.go): Value returns nil
// and Error reports it.
func (it *Iterator) Value() []byte {
	ent := it.cur.entry(it)
	if !ent.vptr {
		return ent.Value
	}
	p, err := decodeValuePointer(ent.Value)
	var v []byte
	if err == nil {
		v, err = it.e.vlog.read(it.vfiles, p)
	}
	if err != nil {
		it.e.readMetrics.CorruptionErrors.Inc(1)
		if it.err == nil {
			it.err = fmt.Errorf("%w: value pointer of key %q does not resolve: %v", ErrCorruption, ent.Key, err)
		}
		return nil
	}
	return v
}

// Error returns the first error the iterator met; callers check it where
// they read a value and when their loop ends.
func (it *Iterator) Error() error { return it.err }

// Next advances to the next live (non-tombstone) key.
func (it *Iterator) Next() {
	if it.cur == nil {
		return
	}
	it.skipCurrent()
	it.settle()
}

// SeekGE positions the iterator on the first live key >= key (clamped to lo),
// in either direction.
func (it *Iterator) SeekGE(key []byte) {
	if bytes.Compare(key, it.lo) < 0 {
		key = it.lo
	}
	// Every source sits on its first entry >= the current key, so on a seek
	// forward a source already at or past the target is where it should be.
	forward := it.cur != nil && bytes.Compare(key, it.cur.key) > 0
	it.seekSources(key, forward)
}

func (it *Iterator) seekSources(key []byte, forward bool) {
	for i := range it.srcs {
		s := &it.srcs[i]
		if forward && (s.key == nil || bytes.Compare(s.key, key) >= 0) {
			continue
		}
		if s.mem != nil {
			s.settleMem(it, s.mem.seek(key, nil))
		} else {
			s.seekTables(it, key)
		}
	}
	it.settle()
}

// skipCurrent steps every source holding the current key past it: the holder
// itself and the older runs it shadows.
func (it *Iterator) skipCurrent() {
	k := it.cur.key // aliases immutable memory: survives the holder's own step
	for i := range it.srcs {
		if s := &it.srcs[i]; s.key != nil && bytes.Equal(s.key, k) {
			s.step(it)
		}
	}
}

// settle makes the smallest key across the sources current — the newest run
// winning a tie — and skips it if that run holds a tombstone for it.
func (it *Iterator) settle() {
	for {
		it.cur = nil
		for i := range it.srcs {
			s := &it.srcs[i]
			if s.key != nil && (it.cur == nil || bytes.Compare(s.key, it.cur.key) < 0) {
				it.cur = s
			}
		}
		if it.cur == nil || !it.cur.entry(it).Tombstone {
			return
		}
		it.skipCurrent()
	}
}

// entry returns the source's current entry, aliasing the memtable version or
// the encoded block.
func (s *iterSource) entry(it *Iterator) Entry {
	if s.mem != nil {
		return s.node.entry(s.node.visible(it.seq))
	}
	ent, _ := entryAt(s.tables[s.ti].blocks[s.bi], s.off)
	return ent
}

func (s *iterSource) step(it *Iterator) {
	if s.mem != nil {
		s.settleMem(it, s.node.next(0))
		return
	}
	t := s.tables[s.ti]
	_, s.off = entryAt(t.blocks[s.bi], s.off)
	if s.off >= len(t.blocks[s.bi]) {
		s.bi, s.off = s.bi+1, 0
		if s.bi >= len(t.blocks) {
			s.ti++
			if !s.openTable(it) {
				return
			}
		}
	}
	s.load(it)
}

// settleMem positions the source on the first node from n on that existed in
// the snapshot: a node inserted by a later batch has no version at or below
// the snapshot's sequence number and is passed over.
func (s *iterSource) settleMem(it *Iterator, n *skipNode) {
	for ; n != nil; n = n.next(0) {
		if it.hi != nil && bytes.Compare(n.key, it.hi) >= 0 {
			break
		}
		if n.visible(it.seq) != nil {
			s.node, s.key = n, n.key
			return
		}
	}
	s.node, s.key = nil, nil
}

// seekTables positions the source on its first entry >= key: a binary search
// for the table (a sorted level's tables are ordered and disjoint), another
// for the block, and a walk over the block's headers.
func (s *iterSource) seekTables(it *Iterator, key []byte) {
	s.ti = sort.Search(len(s.tables), func(i int) bool {
		return bytes.Compare(s.tables[i].maxKey, key) >= 0
	})
	if !s.openTable(it) {
		return
	}
	t := s.tables[s.ti]
	if bi := t.blockFor(key); bi > 0 {
		s.bi = bi
	}
	for b := t.blocks[s.bi]; s.off < len(b); {
		ent, next := entryAt(b, s.off)
		if bytes.Compare(ent.Key, key) >= 0 {
			break
		}
		s.off = next
	}
	if s.off >= len(t.blocks[s.bi]) {
		// Every entry of the block sorts before key, and key <= the table's
		// maxKey: the answer is the head of the next block.
		s.bi, s.off = s.bi+1, 0
	}
	s.load(it)
}

// openTable points the source at the head of tables[ti], passing over empty
// tables (a bottommost compaction that dropped everything leaves one). It
// reports false, and exhausts the source, when no table is left or the table
// starts at or past hi. A table counts as probed when a source positions in
// it.
func (s *iterSource) openTable(it *Iterator) bool {
	for s.ti < len(s.tables) && s.tables[s.ti].numEntries == 0 {
		s.ti++
	}
	if s.ti >= len(s.tables) || (it.hi != nil && bytes.Compare(s.tables[s.ti].minKey, it.hi) >= 0) {
		s.key = nil
		return false
	}
	s.bi, s.off = 0, 0
	it.e.readMetrics.TablesProbed.Inc(1)
	return true
}

// load reads the key at the source's position, exhausting the source at hi.
func (s *iterSource) load(it *Iterator) {
	ent, _ := entryAt(s.tables[s.ti].blocks[s.bi], s.off)
	s.key = ent.Key
	if it.hi != nil && bytes.Compare(s.key, it.hi) >= 0 {
		s.key = nil
	}
}
