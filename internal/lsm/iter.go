package lsm

import (
	"bytes"
	"math"
	"sort"

	"crdbserverless/internal/metric"
)

// Iterator is a forward scan over [lo, hi) of a snapshot of the engine. A nil
// hi means scan to the end of the keyspace. Tombstones are resolved: deleted
// keys are not surfaced.
//
// The snapshot is everything NewIter captures under one read lock: the
// engine's batch sequence number, the active and immutable memtables and the
// level slices. A batch is applied wholly inside the exclusive lock, so the
// captured number never falls inside one, and a later batch is invisible
// because its memtable versions carry a higher number (tables and level
// slices are immutable once published). Nothing is copied or decoded until
// the iterator is positioned on it: a memtable source follows the skiplist's
// index links through the memtable's arenas and reads keys and values where
// they lie in its byte chunks, and a table source reads entry headers in
// place in the encoded block. There is no Close: a rotated memtable (its
// arenas with it) and a compacted-away table live exactly as long as an
// iterator refers to them, and iterators are short-lived (one kept for reuse
// drops its snapshot with Release). An Iterator is not copied: its sources
// live in it.
//
// The iterator is the engine's only read path, and its sources are the
// engine's only merge: a flush or compaction drains them through
// mergeSources. A point read positions one at the key, by NewIter's lower
// bound or a SeekGE, and checks that it landed on exactly that key.
type Iterator struct {
	probed *metric.Counter // lsm.tables.probed; nil in a merge, which counts none
	seq    uint64
	lo, hi []byte
	srcs   []iterSource // newest run first: a key's first holder shadows the rest
	cur    *iterSource  // holder of the current entry; nil when exhausted
	// buf backs srcs for the common shapes, keeping NewIter at one allocation.
	// IterIn reuses srcs' array, buf or the one it grew into, and the key
	// buffer each slot of it holds.
	buf [2]iterSource
}

// iterSource is a cursor over one sorted run: a memtable (mem set) or a
// sorted window of tables — one L0 table, or a whole L1+ level, which opens
// its next table when the last runs out. Positioning finds the entry once
// and keeps its key and value, so neither the tombstone check nor Value walks
// a version chain or parses an entry header again. The value, and a key that
// shares nothing with the one before it, lie in a block or a memtable chunk (a
// version visible in a snapshot is never rewritten); a key that shares a
// prefix is rebuilt in kbuf, which the next move overwrites.
type iterSource struct {
	mem *memTable

	tables []*ssTable
	ti, bi int32 // table, block within it
	// next is the offset of the entry after the current one in its block; a
	// memtable source's next is the node after its current one, so a step
	// looks up no node it has already read.
	next int32

	key  []byte // current key; nil when the run is exhausted
	val  []byte // current value; nil for a tombstone
	kbuf []byte // the key buffer, allocated at the first key that shares a prefix
}

// NewIter returns an iterator over [lo, hi) positioned on the first live key.
// The engine lock is held only to capture the snapshot; positioning — and
// every later step — runs outside it, beside concurrent writers.
func (e *Engine) NewIter(lo, hi []byte) *Iterator {
	it := new(Iterator)
	e.IterIn(it, lo, hi)
	return it
}

// IterIn is NewIter in storage the caller keeps: it makes it an iterator over
// [lo, hi) of a snapshot captured now, whatever it was before. The snapshot
// lives until the next IterIn or Release; a caller that keeps the iterator
// past its use releases it. The storage the iterator already holds, its
// sources' array and their key buffers, is reused, so an Iterator kept for
// one lookup after another allocates nothing once warm.
func (e *Engine) IterIn(it *Iterator, lo, hi []byte) {
	it.Release()
	it.probed, it.lo, it.hi = e.readMetrics.TablesProbed, lo, hi
	e.mu.RLock()
	it.seq = e.mu.seq
	e.snapSeq.Store(it.seq) // writers now retain every version at or below it
	mem, imm, levels := e.mu.mem, e.mu.imm, e.mu.levels
	e.mu.RUnlock()

	it.add(iterSource{mem: mem})
	// Immutable memtables (rotated, waiting for the drain) are newer than
	// any sstable; the queue is newest-first.
	for _, m := range imm {
		it.add(iterSource{mem: m})
	}
	// L0 newest-first: any table may overlap the bounds, but the min/max
	// pre-check skips the ones that provably don't.
	for i, t := range levels[0] {
		if t.overlaps(lo, hi) {
			it.add(iterSource{tables: levels[0][i : i+1]})
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
			it.add(iterSource{tables: tables[start:]})
		}
	}
	it.seekSources(lo, false)
}

// add appends a source, which takes the key buffer of the slot it fills. When
// the sources outgrow buf, buf's slots are cleared: the grown array is the
// iterator's from then on, and a stale slot would keep its snapshot alive.
func (it *Iterator) add(s iterSource) {
	n := len(it.srcs)
	if n < cap(it.srcs) {
		s.kbuf = it.srcs[:n+1][n].kbuf
	}
	spill := n == cap(it.srcs) && n == len(it.buf) && &it.srcs[:1][0] == &it.buf[0]
	it.srcs = append(it.srcs, s)
	if spill {
		it.buf = [len(it.buf)]iterSource{}
	}
}

// Release drops the iterator's snapshot — the memtables and tables its
// sources refer to — and keeps the storage IterIn reuses: the sources' array
// and their key buffers. The iterator is not valid until the next IterIn.
func (it *Iterator) Release() {
	if it.srcs == nil {
		it.srcs = it.buf[:0]
	}
	all := it.srcs[:cap(it.srcs)]
	for i := range all {
		all[i] = iterSource{kbuf: all[i].kbuf}
	}
	it.probed, it.seq, it.lo, it.hi, it.srcs, it.cur = nil, 0, nil, nil, all[:0], nil
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.cur != nil }

// Key returns the current key. Only valid while Valid() is true. The slice
// is lent: it is valid until the next positioning call (Next, SeekGE or
// IterIn), which may overwrite it, and a caller that keeps a key copies it.
// Its capacity ends with it.
func (it *Iterator) Key() []byte { return it.cur.key }

// Value returns the current value. Only valid while Valid() is true. Unlike
// Key's, the slice aliases immutable engine memory (a block, or a memtable's
// byte chunk) and stays readable after the iterator moves on; its capacity
// ends with it.
func (it *Iterator) Value() []byte { return it.cur.val }

// Next advances to the next live (non-tombstone) key.
func (it *Iterator) Next() {
	if it.cur == nil {
		return
	}
	it.skipCurrent()
	it.settle()
}

// SeekGE positions the iterator on the first live key >= key (clamped to lo),
// in either direction. key must not be a slice Key returned.
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
		s.seek(it, key)
	}
	it.settle()
}

// skipCurrent steps every source holding the current key past it: the older
// runs it shadows, then the holder, whose step may overwrite the key.
func (it *Iterator) skipCurrent() {
	cur := it.cur
	for i := range it.srcs {
		if s := &it.srcs[i]; s != cur && s.key != nil && bytes.Equal(s.key, cur.key) {
			s.step(it)
		}
	}
	cur.step(it)
}

// pick makes the smallest key across the sources current, the newest run
// winning a tie; nil when every source is exhausted.
func (it *Iterator) pick() {
	it.cur = nil
	for i := range it.srcs {
		s := &it.srcs[i]
		if s.key != nil && (it.cur == nil || bytes.Compare(s.key, it.cur.key) < 0) {
			it.cur = s
		}
	}
}

// settle picks the next key and skips it while its newest run holds a
// tombstone for it.
func (it *Iterator) settle() {
	for it.pick(); it.cur != nil && it.cur.tombstone(); it.pick() {
		it.skipCurrent()
	}
}

// mergeSources drains sorted runs, newest first, into the entries newSSTable
// encodes: each key's newest entry, in key order, with every memtable version
// visible. A tombstone is kept unless dropTombstones is set, which is valid
// only when the output is bottommost. The values, and the keys that lie whole
// in a block or chunk, alias the sources' memory; a key a source lent from its
// buffer is copied into the merge's own key arena. A merge counts no table
// probes.
func mergeSources(srcs []iterSource, dropTombstones bool) []Entry {
	it := Iterator{seq: math.MaxUint64, srcs: srcs}
	n := 0
	for i := range srcs {
		s := &srcs[i]
		if s.mem != nil {
			n += s.mem.count
		}
		for _, t := range s.tables {
			n += t.numEntries
		}
		s.seek(&it, nil)
	}
	out := make([]Entry, 0, n)
	var arena []byte
	for it.pick(); it.cur != nil; it.pick() {
		if s := it.cur; !dropTombstones || !s.tombstone() {
			key := s.key
			if s.lent() {
				if cap(arena)-len(arena) < len(key) {
					arena = make([]byte, 0, max(mergeArenaBytes, len(key)))
				}
				start := len(arena)
				arena = append(arena, key...)
				key = arena[start:len(arena):len(arena)]
			}
			out = append(out, Entry{Key: key, Value: s.val, Tombstone: s.tombstone()})
		}
		it.skipCurrent()
	}
	return out
}

// mergeArenaBytes is the size of each chunk of a merge's key arena. A chunk
// that fills is left to the keys already in it, never regrown.
const mergeArenaBytes = 64 << 10

// tombstone reports whether the source's current entry is a tombstone.
func (s *iterSource) tombstone() bool { return s.val == nil }

// seek positions the source on its first entry >= key.
func (s *iterSource) seek(it *Iterator, key []byte) {
	if s.mem != nil {
		s.settleMem(it, s.mem.seek(key, nil))
	} else {
		s.seekTables(it, key)
	}
}

// block returns a table source's current block.
func (s *iterSource) block() []byte { return s.tables[s.ti].blocks[s.bi] }

func (s *iterSource) step(it *Iterator) {
	if s.mem != nil {
		s.settleMem(it, uint32(s.next))
		return
	}
	off, b := int(s.next), s.block()
	if off >= len(b) {
		s.bi, off = s.bi+1, 0
		if int(s.bi) >= len(s.tables[s.ti].blocks) {
			s.ti++
			if !s.openTable(it) {
				return
			}
		}
		b = s.block()
	}
	s.decode(b, off)
	s.checkHi(it)
}

// settleMem positions the source on the first node from x on that existed in
// the snapshot: a node inserted by a later batch has no version at or below
// the snapshot's sequence number and is passed over. The successor is read
// once, here: a node linked in after it was read belongs to a batch later than
// the snapshot. A value in the key's chunk (an insert lays a node's first
// value out right after its key) is sliced from the chunk already found.
func (s *iterSource) settleMem(it *Iterator, x uint32) {
	m := s.mem
	for x != 0 {
		n := m.nodes.at(x)
		v := &n.first // what most nodes hold: one version, older than the snapshot
		if n.newest.Load() != 0 || v.seq > it.seq {
			v = m.visible(n, it.seq)
		}
		c, o := m.bytes.locate(n.key)
		end := o + n.klen
		s.key = c[o:end:end]
		x = n.next0.Load()
		if it.hi != nil && bytes.Compare(s.key, it.hi) >= 0 {
			break
		}
		if v == nil {
			continue
		}
		s.next = int32(x)
		switch vl, vo := uint32(v.valueLen()), v.val&(1<<chunkBits-1); {
		case v.tombstone():
			s.val = nil
		case v.val>>chunkBits == n.key>>chunkBits:
			s.val = c[vo : vo+vl : vo+vl]
		default:
			s.val = m.bytes.slice(v.val, vl)
		}
		return
	}
	s.key = nil
}

// seekTables positions the source on its first entry >= key: a binary search
// for the table (a sorted level's tables are ordered and disjoint), another
// for the block, and a walk from the block's head within it, since each key
// is rebuilt from the one before.
func (s *iterSource) seekTables(it *Iterator, key []byte) {
	s.ti = int32(sort.Search(len(s.tables), func(i int) bool {
		return bytes.Compare(s.tables[i].maxKey, key) >= 0
	}))
	if !s.openTable(it) {
		return
	}
	t := s.tables[s.ti]
	if bi := t.blockFor(key); bi > 0 {
		s.bi = int32(bi)
	}
	b := t.blocks[s.bi]
	for off := 0; ; off = int(s.next) {
		if off >= len(b) {
			// Every entry of the block sorts before key, and key <= the
			// table's maxKey: the answer is the head of the next block.
			s.bi++
			s.decode(t.blocks[s.bi], 0)
			break
		}
		if s.decode(b, off); bytes.Compare(s.key, key) >= 0 {
			break
		}
	}
	s.checkHi(it)
}

// openTable points the source at the head of tables[ti]. It reports false,
// and exhausts the source, when no table is left or the table starts at or
// past hi. A table counts as probed when a read's source positions in it.
func (s *iterSource) openTable(it *Iterator) bool {
	if int(s.ti) >= len(s.tables) || (it.hi != nil && bytes.Compare(s.tables[s.ti].minKey, it.hi) >= 0) {
		s.key = nil
		return false
	}
	s.bi = 0
	if it.probed != nil {
		it.probed.Inc(1)
	}
	return true
}

// decode reads the entry at off of b, the source's block — its key, its
// value and where it ends. An entry that shares a key prefix must follow the
// source's current key in the block.
func (s *iterSource) decode(b []byte, off int) {
	shared, suffix, value, tombstone, next := entryAt(b, off)
	s.next = int32(next)
	if shared == 0 {
		s.key = suffix
	} else {
		s.lend(shared, suffix)
	}
	s.val = value
	if tombstone {
		s.val = nil
	}
}

// checkHi exhausts a table source whose key is at or past hi.
func (s *iterSource) checkHi(it *Iterator) {
	if it.hi != nil && bytes.Compare(s.key, it.hi) >= 0 {
		s.key = nil
	}
}

// lend makes the source's key the first shared bytes of its current key
// followed by suffix, built in its key buffer: in place, over the key before
// it, which then shares its first bytes and holds the rest no longer. In the
// poison build the key is built in the half of the buffer the old key does
// not hold, and the old key is overwritten with poisonByte, so a caller that
// kept a lent key past a move reads garbage.
func (s *iterSource) lend(shared int, suffix []byte) {
	old, n := s.key, shared+len(suffix)
	if !poisonLentKeys && n <= cap(s.kbuf) && startsAt(s.kbuf, 0, old) {
		// The common case: the key before is in the buffer, and so is the
		// prefix they share.
		key := s.kbuf[:n:n]
		copy(key[shared:], suffix)
		s.key = key
		return
	}
	slot := cap(s.kbuf)
	if poisonLentKeys {
		slot /= 2
	}
	at := 0
	if poisonLentKeys && startsAt(s.kbuf, 0, old) {
		at = slot
	}
	buf := s.kbuf
	if n > slot {
		// At least twice the key: room for the poison build's two halves,
		// and for a longer key later.
		buf, at = make([]byte, 2*n+keyBufSlack), 0
	}
	key := buf[at : at+n : at+n]
	if !startsAt(buf, at, old) {
		copy(key, old[:shared])
	}
	copy(key[shared:], suffix)
	if poisonLentKeys && (startsAt(s.kbuf, 0, old) || startsAt(s.kbuf, cap(s.kbuf)/2, old)) {
		poison(old)
	}
	s.kbuf, s.key = buf[:cap(buf)], key
}

// keyBufSlack is added to a key buffer beyond twice the key it is made for.
const keyBufSlack = 16

// poisonLentKeys is false but in the poison build (poison.go), which sets it
// to have lend overwrite each key it replaces with poisonByte.
var poisonLentKeys bool

const poisonByte = 0xdb

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// startsAt reports whether key starts at buf[at].
func startsAt(buf []byte, at int, key []byte) bool {
	return len(key) > 0 && at < cap(buf) && &buf[:at+1][at] == &key[0]
}

// lent reports whether the source's current key is in its key buffer: the
// next move overwrites it.
func (s *iterSource) lent() bool {
	return s.key != nil && (startsAt(s.kbuf, 0, s.key) || (poisonLentKeys && startsAt(s.kbuf, cap(s.kbuf)/2, s.key)))
}
