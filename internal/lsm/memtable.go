// Package lsm implements a log-structured merge tree storage engine in the
// style of Pebble (§5.1.3 of the paper): an in-memory memtable backed by a
// write-ahead log, a level 0 of possibly-overlapping immutable runs, and
// levels 1..6 of non-overlapping runs maintained by compaction. The memtable
// is a skiplist whose nodes, versions, links, keys and values live in chunks
// of pointer-free arena memory, as in Pebble's arenaskl: a write allocates
// nothing per entry, and the GC never scans a node.
//
// The engine exposes the instrumentation that CockroachDB's admission control
// derives write capacity from: flush throughput, compaction throughput, and
// the L0 file/backlog state that drives read amplification.
package lsm

import (
	"bytes"
	"math/rand"
	"sync/atomic"
)

const maxSkipLevel = 12

// arena is an append-only sequence of T in chunks, each element addressed by
// a uint32: the chunk's number above the low chunkBits bits, the element's
// offset in the chunk below them. Chunks double from first elements up to
// largest and stay there, so a small memtable holds small chunks; a request
// larger than a quarter of largest (only a long key or value can be) gets a
// chunk of its own at offset 0. Elements never move.
//
// One writer appends beside readers that hold no lock. The first chunks'
// headers are inline, so a reader finds one with a single load; the writer
// sets a header before anything in its chunk is published, and a reader only
// holds an index it loaded from a link or version stored after that. Chunks
// past those are in more, which the writer replaces atomically after
// appending to it.
type arena[T any] struct {
	inline         [inlineChunks][]T
	more           atomic.Pointer[[][]T]
	first, largest int
	// The writer's alone: the number of chunks, the chunk small requests go
	// to, and how much of it is used.
	chunks int
	open   []T
	openK  uint32
	used   int
}

// chunkBits is the width of an arena index's offset: the byte arena's
// largest chunk, 64 KiB, uses all of it, and no arena holds more than 1<<16
// chunks. inlineChunks covers about 7.8 MiB of bytes and 125 k nodes, more
// than a memtable at the default 4 MiB flush threshold holds.
const (
	chunkBits    = 16
	inlineChunks = 128
)

// alloc reserves n contiguous elements, zeroed, and returns the first's
// index. Zero elements are at index 0, which the caller must have allocated.
func (a *arena[T]) alloc(n int) uint32 {
	if n == 0 {
		return 0
	}
	if a.used+n <= len(a.open) {
		i := a.openK<<chunkBits | uint32(a.used)
		a.used += n
		return i
	}
	if n > a.largest/4 {
		return a.grow(n) << chunkBits
	}
	size := max(min(a.largest, 2*len(a.open)), a.first, n)
	a.openK = a.grow(size)
	a.open = a.chunk(a.openK)
	a.used = n
	return a.openK << chunkBits
}

// grow adds a chunk of n elements and returns its number.
func (a *arena[T]) grow(n int) uint32 {
	k := a.chunks
	if k >= 1<<(32-chunkBits) {
		panic("lsm: memtable arena exhausted")
	}
	c := make([]T, n)
	if k < inlineChunks {
		a.inline[k] = c
	} else {
		var d [][]T
		if p := a.more.Load(); p != nil {
			d = *p
		}
		// Appending may write past the published length in place: no reader
		// indexes that far.
		d = append(d, c)
		a.more.Store(&d)
	}
	a.chunks++
	return uint32(k)
}

// chunk returns chunk k.
func (a *arena[T]) chunk(k uint32) []T {
	if k < inlineChunks {
		return a.inline[k]
	}
	return a.moreChunk(k)
}

// moreChunk is chunk's rare case, kept out of it so that chunk inlines.
func (a *arena[T]) moreChunk(k uint32) []T { return (*a.more.Load())[k-inlineChunks] }

func (a *arena[T]) at(i uint32) *T {
	return &a.chunk(i >> chunkBits)[i&(1<<chunkBits-1)]
}

// locate returns the chunk holding index i and i's offset in it.
func (a *arena[T]) locate(i uint32) ([]T, uint32) {
	return a.chunk(i >> chunkBits), i & (1<<chunkBits - 1)
}

// slice returns the n elements from i, capped so an append cannot reach the
// next ones.
func (a *arena[T]) slice(i uint32, n uint32) []T {
	c, o := a.locate(i)
	return c[o : o+n : o+n]
}

// put copies b into the arena and returns its index.
func (a *arena[T]) put(b []T) uint32 {
	i := a.alloc(len(b))
	copy(a.slice(i, uint32(len(b))), b)
	return i
}

// memVersion is one write to a memtable key: seq is the engine batch that
// wrote it, the value is vlen bytes at val in the byte arena, with vcap bytes
// reserved there, and older is the version it superseded, fixed before the
// version is published. A version reference is 0 for the node's first version
// and v for versions.at(v-1).
type memVersion struct {
	seq   uint64
	val   uint32
	vlen  uint32 // the value's length; tombstoneBit marks a tombstone
	vcap  uint32
	older uint32
}

const tombstoneBit = 1 << 31

func (v *memVersion) tombstone() bool { return v.vlen&tombstoneBit != 0 }
func (v *memVersion) valueLen() int   { return int(v.vlen &^ tombstoneBit) }

// memNode is one key of the skiplist. The level-0 link and the first version
// live in the node; the links for levels 1..height-1 are contiguous in the
// link arena from tower (a reader only follows a level it reached the node
// by, so the height is not stored), and newest is set only once the key has
// been overwritten. Every field is an index or a number: a chunk of nodes
// holds no pointer for the GC to scan.
type memNode struct {
	key    uint32 // byte arena index of the key
	klen   uint32
	next0  atomic.Uint32 // 0 is the end: the head (node 0) is no one's successor
	tower  uint32
	newest atomic.Uint32 // version reference; 0 while first is the only version
	first  memVersion
}

// memTable is a skiplist-based ordered map from key to a chain of versions,
// held in arenas: nodes, versions and upper links in chunks of pointer-free
// structs, keys and values in chunks of bytes. The arenas live until the
// memtable's last reader drops it, so a key or value slice handed out stays
// valid that long.
//
// Concurrency: one writer — set, which the Engine calls only under its
// exclusive lock — beside any number of readers that hold no lock at all
// (iterators; see iter.go). Links and version chains are published with atomic
// stores after the node or version they point at is fully built, nodes are
// never removed, and an overwrite of a version some snapshot may hold pushes a
// new version instead of replacing it, so a reader that ignores versions above
// its snapshot's sequence number sees exactly the memtable as of that
// snapshot. count, sizeB and firstSeg are the writer's and are read only under
// the engine lock.
type memTable struct {
	nodes    arena[memNode]
	versions arena[memVersion]
	links    arena[atomic.Uint32]
	bytes    arena[byte]
	rng      *rand.Rand
	count    int
	sizeB    int64 // approximate bytes of keys+values, retained versions included
	// firstSeg is the lowest WAL segment holding this memtable's entries
	// (durable engines only). The manifest records the minimum across the
	// active and immutable memtables; recovery replays the WAL from there.
	firstSeg uint64
	// id is the ID of the sstable this memtable flushes to, set once, under
	// the engine lock, when it rotates.
	id uint64
}

// The largest chunks: 48 KiB of nodes, 48 KiB of versions, 32 KiB of links
// and 64 KiB of bytes.
func newMemTable(rng *rand.Rand) *memTable {
	m := &memTable{
		nodes:    arena[memNode]{first: 16, largest: 1 << 10},
		versions: arena[memVersion]{first: 16, largest: 2 << 10},
		links:    arena[atomic.Uint32]{first: 32, largest: 8 << 10},
		bytes:    arena[byte]{first: 1 << 10, largest: 1 << chunkBits},
		rng:      rng,
	}
	m.nodes.alloc(1) // the head, node 0
	m.nodes.at(0).tower = m.links.alloc(maxSkipLevel - 1)
	m.bytes.alloc(1) // chunk 0 holds every empty key and value
	return m
}

func (m *memTable) randomLevel() int {
	lvl := 1
	for lvl < maxSkipLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

func (m *memTable) next(n *memNode, level int) uint32 {
	if level == 0 {
		return n.next0.Load()
	}
	return m.links.at(n.tower + uint32(level-1)).Load()
}

func (m *memTable) setNext(n *memNode, level int, x uint32) {
	if level == 0 {
		n.next0.Store(x)
		return
	}
	m.links.at(n.tower + uint32(level-1)).Store(x)
}

func (m *memTable) key(n *memNode) []byte { return m.bytes.slice(n.key, n.klen) }

// version resolves a version reference of node n.
func (m *memTable) version(n *memNode, ref uint32) *memVersion {
	if ref == 0 {
		return &n.first
	}
	return m.versions.at(ref - 1)
}

// visible returns n's newest version written at or below seq, or nil when
// the key did not exist in that snapshot.
func (m *memTable) visible(n *memNode, seq uint64) *memVersion {
	for ref := n.newest.Load(); ref != 0; {
		v := m.versions.at(ref - 1)
		if v.seq <= seq {
			return v
		}
		ref = v.older
	}
	if n.first.seq <= seq {
		return &n.first
	}
	return nil
}

// seek returns the first node with key >= target, 0 if there is none. When
// prev is non-nil it receives, per level, the last node before target — the
// splice an insert links behind.
func (m *memTable) seek(target []byte, prev *[maxSkipLevel]uint32) uint32 {
	x, xn := uint32(0), m.nodes.at(0)
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for {
			nx := m.next(xn, i)
			if nx == 0 {
				break
			}
			nn := m.nodes.at(nx)
			if bytes.Compare(m.key(nn), target) >= 0 {
				break
			}
			x, xn = nx, nn
		}
		if prev != nil {
			prev[i] = x
		}
	}
	return xn.next0.Load()
}

// setValue copies e's value into fresh arena bytes for v.
func (m *memTable) setValue(v *memVersion, e Entry) {
	v.val, v.vcap = m.bytes.put(e.Value), uint32(len(e.Value))
	v.setLen(e)
}

func (v *memVersion) setLen(e Entry) {
	v.vlen = uint32(len(e.Value))
	if e.Tombstone {
		v.vlen |= tombstoneBit
	}
}

// set copies e into the arenas as part of engine batch seq.
//
// snapSeq is the highest sequence number any iterator's snapshot holds. A
// current version above it is one no iterator can read — those that exist
// predate it, those to come will see this batch — so it is replaced in place,
// as cheaply as if there were no readers: that covers a key written twice in
// one batch, and a replica nobody reads from. Its value bytes were never
// handed out either, so the new value overwrites them when it fits; when it
// does not, it goes to fresh bytes of at least twice the old room, which
// keeps a value growing in place within four times its size. Otherwise the
// version stays on the node's chain for the snapshots that hold it, and stays
// charged to sizeB — a key overwritten by every command (the per-range
// applied index) would otherwise grow a chain bounded by nothing but the
// other keys' bytes.
func (m *memTable) set(e Entry, seq, snapSeq uint64) {
	var prev [maxSkipLevel]uint32
	if x := m.seek(e.Key, &prev); x != 0 {
		if n := m.nodes.at(x); bytes.Equal(m.key(n), e.Key) {
			ref := n.newest.Load()
			cur := m.version(n, ref)
			if cur.seq > snapSeq {
				// Readers only ever compare cur.seq, which keeps its (older, still
				// unobserved) number.
				m.sizeB += int64(len(e.Value) - cur.valueLen())
				if len(e.Value) <= int(cur.vcap) {
					copy(m.bytes.slice(cur.val, cur.vcap), e.Value)
				} else {
					room := max(len(e.Value), 2*int(cur.vcap))
					cur.val, cur.vcap = m.bytes.alloc(room), uint32(room)
					copy(m.bytes.slice(cur.val, cur.vcap), e.Value)
				}
				cur.setLen(e)
				return
			}
			m.sizeB += int64(len(e.Value) + 16)
			v := m.versions.alloc(1)
			nv := m.versions.at(v)
			nv.seq, nv.older = seq, ref
			m.setValue(nv, e)
			n.newest.Store(v + 1)
			return
		}
	}
	lvl := m.randomLevel()
	x := m.nodes.alloc(1)
	n := m.nodes.at(x)
	n.klen, n.first.seq = uint32(len(e.Key)), seq
	if kv := len(e.Key) + len(e.Value); kv <= m.bytes.largest/4 {
		// The value right after the key, in one chunk: a reader takes both
		// from one lookup (see iterSource.settleMem).
		n.key = m.bytes.alloc(kv)
		copy(m.bytes.slice(n.key, uint32(kv)), e.Key)
		if len(e.Value) > 0 { // an empty value stays at 0, which is always in a chunk
			n.first.val = n.key + n.klen
			copy(m.bytes.slice(n.first.val, uint32(len(e.Value))), e.Value)
		}
		n.first.vcap = uint32(len(e.Value))
		n.first.setLen(e)
	} else {
		n.key = m.bytes.put(e.Key)
		m.setValue(&n.first, e)
	}
	if lvl > 1 {
		n.tower = m.links.alloc(lvl - 1)
	}
	// Bottom-up, each level's forward link before the link that publishes it:
	// a reader that reaches n at any level finds a complete node.
	for i := 0; i < lvl; i++ {
		p := m.nodes.at(prev[i])
		m.setNext(n, i, m.next(p, i))
		m.setNext(p, i, x)
	}
	m.count++
	m.sizeB += int64(len(e.Key) + len(e.Value) + 16)
}

func (m *memTable) empty() bool { return m.count == 0 }
