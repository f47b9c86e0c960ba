// Package lsm implements a log-structured merge tree storage engine in the
// style of Pebble (§5.1.3 of the paper): an in-memory memtable backed by a
// write-ahead log, a level 0 of possibly-overlapping immutable runs, and
// levels 1..6 of non-overlapping runs maintained by compaction.
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

// memVersion is one write to a memtable key. seq is the engine batch that
// wrote it; older is the version it superseded, fixed before the version is
// published.
type memVersion struct {
	value     []byte
	seq       uint64
	older     *memVersion
	tombstone bool
	vptr      bool
}

// skipNode is one key of the skiplist. The level-0 link and the first version
// live in the node; the upper tower exists only on the quarter of nodes taller
// than one level, and newest only once the key has been overwritten — so the
// common node is a single allocation.
type skipNode struct {
	key    []byte
	next0  atomic.Pointer[skipNode]
	tower  []atomic.Pointer[skipNode] // links for levels 1..height-1
	newest atomic.Pointer[memVersion] // nil while first is the only version
	first  memVersion
}

func (n *skipNode) next(level int) *skipNode {
	if level == 0 {
		return n.next0.Load()
	}
	return n.tower[level-1].Load()
}

func (n *skipNode) setNext(level int, x *skipNode) {
	if level == 0 {
		n.next0.Store(x)
		return
	}
	n.tower[level-1].Store(x)
}

// latest returns the node's newest version.
func (n *skipNode) latest() *memVersion {
	if v := n.newest.Load(); v != nil {
		return v
	}
	return &n.first
}

// visible returns the newest version written at or below seq, or nil when
// the key did not exist in that snapshot.
func (n *skipNode) visible(seq uint64) *memVersion {
	v := n.latest()
	for v != nil && v.seq > seq {
		v = v.older
	}
	return v
}

func (n *skipNode) entry(v *memVersion) Entry {
	return Entry{Key: n.key, Value: v.value, Tombstone: v.tombstone, vptr: v.vptr}
}

// memTable is a skiplist-based ordered map from key to a chain of versions.
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
	head  *skipNode
	rng   *rand.Rand
	count int
	sizeB int64 // approximate bytes of keys+values, retained versions included
	// firstSeg is the lowest WAL segment holding this memtable's entries
	// (durable engines only). The manifest records the minimum across the
	// active and immutable memtables; recovery replays the WAL from there.
	firstSeg uint64
}

func newMemTable(rng *rand.Rand) *memTable {
	head := &skipNode{tower: make([]atomic.Pointer[skipNode], maxSkipLevel-1)}
	return &memTable{head: head, rng: rng}
}

func (m *memTable) randomLevel() int {
	lvl := 1
	for lvl < maxSkipLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// seek returns the first node with key >= target. When prev is non-nil it
// receives, per level, the last node before target — the splice an insert
// links behind.
func (m *memTable) seek(target []byte, prev *[maxSkipLevel]*skipNode) *skipNode {
	x := m.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for nx := x.next(i); nx != nil && bytes.Compare(nx.key, target) < 0; nx = x.next(i) {
			x = nx
		}
		if prev != nil {
			prev[i] = x
		}
	}
	return x.next(0)
}

// set writes e as part of engine batch seq. Overwriting a key returns the
// entry that was current until now, so the caller can report a discarded
// value-log pointer.
//
// snapSeq is the highest sequence number any iterator's snapshot holds. A
// current version above it is one no iterator can read — those that exist
// predate it, those to come will see this batch — so it is replaced in place,
// as cheaply as if there were no readers: that covers a key written twice in
// one batch, and a replica nobody reads from. Otherwise the version stays on
// the node's chain for the snapshots that hold it, and stays charged to sizeB
// — a key overwritten by every command (the per-range applied index) would
// otherwise grow a chain bounded by nothing but the other keys' bytes.
func (m *memTable) set(e Entry, seq, snapSeq uint64) (Entry, bool) {
	var prev [maxSkipLevel]*skipNode
	if n := m.seek(e.Key, &prev); n != nil && bytes.Equal(n.key, e.Key) {
		cur := n.latest()
		old := n.entry(cur)
		if cur.seq > snapSeq {
			// Readers only ever compare cur.seq, which keeps its (older, still
			// unobserved) number.
			m.sizeB += int64(len(e.Value) - len(cur.value))
			cur.value, cur.tombstone, cur.vptr = e.Value, e.Tombstone, e.vptr
			return old, true
		}
		m.sizeB += int64(len(e.Value) + 16)
		n.newest.Store(&memVersion{value: e.Value, seq: seq, older: cur, tombstone: e.Tombstone, vptr: e.vptr})
		return old, true
	}
	lvl := m.randomLevel()
	n := &skipNode{key: e.Key, first: memVersion{value: e.Value, seq: seq, tombstone: e.Tombstone, vptr: e.vptr}}
	if lvl > 1 {
		n.tower = make([]atomic.Pointer[skipNode], lvl-1)
	}
	// Bottom-up, each level's forward link before the link that publishes it:
	// a reader that reaches n at any level finds a complete node.
	for i := 0; i < lvl; i++ {
		n.setNext(i, prev[i].next(i))
		prev[i].setNext(i, n)
	}
	m.count++
	m.sizeB += int64(len(e.Key) + len(e.Value) + 16)
	return Entry{}, false
}

// get returns the newest entry for key, if present. The caller holds the
// engine lock (either mode), so no batch is half applied.
func (m *memTable) get(key []byte) (Entry, bool) {
	if n := m.seek(key, nil); n != nil && bytes.Equal(n.key, key) {
		return n.entry(n.latest()), true
	}
	return Entry{}, false
}

// entries returns the newest entry of every key, in key order. Called on a
// rotated memtable, which no longer has a writer.
func (m *memTable) entries() []Entry {
	out := make([]Entry, 0, m.count)
	for n := m.head.next(0); n != nil; n = n.next(0) {
		out = append(out, n.entry(n.latest()))
	}
	return out
}

func (m *memTable) empty() bool { return m.count == 0 }
