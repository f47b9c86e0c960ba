package lsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"crdbserverless/internal/randutil"
)

// modelWrite is one write of the reference model: the batch that wrote it
// and what it wrote.
type modelWrite struct {
	seq   uint64
	value []byte
	tomb  bool
}

// modelKey is a key's full write history, oldest first, and the sequence
// number its current memtable version carries (an in-place rewrite keeps it).
type modelKey struct {
	writes []modelWrite
	curSeq uint64
}

// asOf returns the index of the key's newest write at or below seq, or -1.
func (k *modelKey) asOf(seq uint64) int {
	i := len(k.writes) - 1
	for i >= 0 && k.writes[i].seq > seq {
		i--
	}
	return i
}

// TestMemTableVsModel drives a memtable with a seeded random mix of new keys,
// overwrites, rewrites of a key within one batch, tombstones, growing and
// shrinking values (a few past the byte arena's largest chunk) and snapshots
// taken between batches. After every batch each snapshot still held reads
// exactly the model's history as of its sequence number, the newest state is
// in key order through the merge a flush runs, and sizeB follows its formula.
func TestMemTableVsModel(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			testMemTableVsModel(t, seed)
		})
	}
}

func testMemTableVsModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := newMemTable(randutil.NewRand(seed))
	model := map[string]*modelKey{}
	var keys []string
	var held []uint64 // snapshot sequence numbers still held
	var snapSeq uint64
	var wantSize int64
	buf := make([]byte, 0, 32<<10) // the caller's buffer, reused for every value
	pool, clobber := make([]byte, 64<<10), bytes.Repeat([]byte{0xee}, 32<<10)
	rng.Read(pool) // values are windows of it
	for seq := uint64(1); seq <= 400; seq++ {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			var k string
			if len(keys) == 0 || rng.Intn(3) == 0 {
				k = fmt.Sprintf("k%04d", rng.Intn(400))
			} else {
				k = keys[rng.Intn(len(keys))]
			}
			mk := model[k]
			var size int
			switch r := rng.Intn(20); {
			case r < 3:
				size = 17<<10 + rng.Intn(4<<10) // past a quarter of the largest chunk
			case r < 6 && mk != nil:
				if w := mk.writes[len(mk.writes)-1]; len(w.value) > 0 {
					size = len(w.value) + 1 + rng.Intn(40) // grows
				}
			case r < 9 && mk != nil:
				if w := mk.writes[len(mk.writes)-1]; len(w.value) > 0 {
					size = rng.Intn(len(w.value)) // shrinks
				}
			default:
				size = rng.Intn(64)
			}
			tomb := rng.Intn(6) == 0
			if tomb {
				size = 0
			}
			off := rng.Intn(len(pool) - size)
			buf = append(buf[:0], pool[off:off+size]...)
			w := modelWrite{seq: seq, value: append([]byte(nil), buf...), tomb: tomb}
			switch {
			case mk == nil:
				mk = &modelKey{curSeq: seq}
				model[k] = mk
				keys = append(keys, k)
				wantSize += int64(len(k) + size + 16)
			case mk.curSeq > snapSeq:
				wantSize += int64(size - len(mk.writes[len(mk.writes)-1].value))
			default:
				mk.curSeq = seq
				wantSize += int64(size + 16)
			}
			if last := len(mk.writes) - 1; last >= 0 && mk.writes[last].seq == seq {
				mk.writes[last] = w // a rewrite within the batch replaces its write
			} else {
				mk.writes = append(mk.writes, w)
			}
			m.set(Entry{Key: []byte(k), Value: buf, Tombstone: tomb}, seq, snapSeq)
			copy(buf, clobber) // the memtable must have copied the value
		}
		if rng.Intn(4) == 0 {
			held, snapSeq = append(held, seq), seq
		}
		if len(held) > 6 {
			held = held[rng.Intn(2):] // drop the oldest now and then
		}
		checkMemTable(t, m, model, keys, append(held, math.MaxUint64))
		if m.sizeB != wantSize {
			t.Fatalf("after batch %d: sizeB %d, want %d", seq, m.sizeB, wantSize)
		}
	}
	if m.bytes.chunks <= inlineChunks {
		t.Fatalf("%d byte chunks: the run never reached the chunks past the inline ones", m.bytes.chunks)
	}
}

func checkMemTable(t *testing.T, m *memTable, model map[string]*modelKey, keys []string, snaps []uint64) {
	t.Helper()
	for _, k := range keys {
		x := m.seek([]byte(k), nil)
		if x == 0 || string(m.key(m.nodes.at(x))) != k {
			t.Fatalf("key %q not in the memtable", k)
		}
		n := m.nodes.at(x)
		var prevV *memVersion
		prevW := -1
		for _, s := range snaps {
			w := model[k].asOf(s)
			v := m.visible(n, s)
			if (v != nil) != (w >= 0) {
				t.Fatalf("key %q at snapshot %d: visible=%v, want %v", k, s, v != nil, w >= 0)
			}
			if v == nil || (v == prevV && w == prevW) {
				continue // no version, or the one the previous snapshot checked
			}
			prevV, prevW = v, w
			want := model[k].writes[w]
			if got := m.value(v); !bytes.Equal(got, want.value) || v.tombstone() != want.tomb {
				t.Fatalf("key %q at snapshot %d: %x (tombstone %v), want %x (tombstone %v)",
					k, s, got, v.tombstone(), want.value, want.tomb)
			}
		}
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	ents := mergeSources([]iterSource{{mem: m}}, false)
	if len(ents) != len(sorted) {
		t.Fatalf("merged: %d entries, want %d", len(ents), len(sorted))
	}
	for i, ent := range ents {
		want := model[sorted[i]].writes[len(model[sorted[i]].writes)-1]
		if string(ent.Key) != sorted[i] || !bytes.Equal(ent.Value, want.value) || ent.Tombstone != want.tomb {
			t.Fatalf("merged[%d] = %q (%d bytes, tombstone %v), want %q (%d bytes, tombstone %v)",
				i, ent.Key, len(ent.Value), ent.Tombstone, sorted[i], len(want.value), want.tomb)
		}
	}
}

func (m *memTable) value(v *memVersion) []byte {
	return m.bytes.slice(v.val, uint32(v.valueLen()))
}

// arenaBytes is what a memtable's chunks hold, used or not.
func arenaBytes(m *memTable) int64 {
	return chunkBytes(&m.nodes, 48) + chunkBytes(&m.versions, 24) + chunkBytes(&m.links, 4) + chunkBytes(&m.bytes, 1)
}

func chunkBytes[T any](a *arena[T], size int64) int64 {
	var b int64
	for k := 0; k < a.chunks; k++ {
		b += int64(len(a.chunk(uint32(k)))) * size
	}
	return b
}

// A key rewritten in every batch leaves the arena within a constant factor
// of sizeB: with a fixed-size value (the applied-index pattern) the rewrite
// reuses the value's bytes or is a pushed version sizeB pays for, and a value
// growing in place moves to at least twice its room, so its dead copies sum
// to less than its size.
func TestMemTableArenaBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		size func(batch int) int
		snap func(batch int) bool
	}{
		{"fixed", func(int) int { return 8 }, func(int) bool { return false }},
		{"fixed_observed", func(int) int { return 8 }, func(b int) bool { return b%3 == 0 }},
		{"growing", func(b int) int { return 1 + b }, func(int) bool { return false }},
		{"growing_observed", func(b int) int { return 1 + b }, func(b int) bool { return b%7 == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMemTable(randutil.NewRand(1))
			base := arenaBytes(m)
			val := make([]byte, 4096)
			var snapSeq uint64
			for b := 1; b <= 2000; b++ {
				for k := 0; k < 16; k++ {
					e := Entry{Key: []byte(fmt.Sprintf("/range/%02d/applied", k)), Value: val[:tc.size(b)]}
					m.set(e, uint64(b), snapSeq)
				}
				if tc.snap(b) {
					snapSeq = uint64(b)
				}
				// One largest chunk per arena may sit partly unused.
				if got, bound := arenaBytes(m)-base, 4*m.sizeB+(48+48+32+64)<<10; got > bound {
					t.Fatalf("after batch %d: arena %d B, sizeB %d B", b, got, m.sizeB)
				}
			}
		})
	}
}

// ApplyBatch copies a batch straight into the memtable's arena under the
// engine lock: once the arena's chunks are warm, a 16-entry batch of new keys
// and an applied-index rewrite allocates nothing but, now and then, a chunk.
func TestApplyBatchAllocs(t *testing.T) {
	e := New(Options{MemTableSize: 64 << 20})
	defer e.Close()
	const runs = 1000
	batches := make([][]Entry, runs+1)
	applied := []byte("/range/1/applied")
	for i := range batches {
		for j := 0; j < 15; j++ {
			batches[i] = append(batches[i], Entry{
				Key:   []byte(fmt.Sprintf("/table/53/1/%06d/%02d", i, j)),
				Value: bytes.Repeat([]byte{byte(j)}, 40+j),
			})
		}
		batches[i] = append(batches[i], Entry{Key: applied, Value: []byte("00000000")})
	}
	for i := 0; i < 200; i++ {
		if err := e.ApplyBatch([]Entry{{Key: []byte(fmt.Sprintf("/warm/%04d", i)), Value: make([]byte, 64)}}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := e.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ApplyBatch of %d entries makes %v allocations, want 0", len(batches[0]), allocs)
	}
}

// Readers scan the memtable while one writer grows it past the inline chunk
// headers of every arena: each scan sees a prefix of the writes, every key
// with its own value, however many chunks were added since it started.
func TestMemTableConcurrentGrowth(t *testing.T) {
	e := New(Options{MemTableSize: 64 << 20})
	defer e.Close()
	const n = 2400 // 4 KiB values: past the inline byte chunks
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 4<<10) }
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := 0
				for it := e.NewIter(nil, nil); it.Valid(); it.Next() {
					if !bytes.Equal(it.Key(), key(i)) || !bytes.Equal(it.Value(), val(i)) {
						t.Errorf("entry %d: key %q, value of %d bytes", i, it.Key(), len(it.Value()))
						return
					}
					i++
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := e.ApplyBatch([]Entry{{Key: key(i), Value: val(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	e.mu.RLock()
	chunks := e.mu.mem.bytes.chunks
	e.mu.RUnlock()
	if chunks <= inlineChunks {
		t.Fatalf("%d byte chunks: the writes never reached the chunks past the inline ones", chunks)
	}
}
