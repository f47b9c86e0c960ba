package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/randutil"
)

// buildDeepEngine constructs a deep shape — a 10-file L0 backlog plus
// populated L1-L3. L0 keys are l0-*, and each deeper level holds 4
// non-overlapping tables of level-distinct keys.
func buildDeepEngine(t testing.TB) *Engine {
	t.Helper()
	e := newManualEngine(Options{})
	for i := 0; i < 10; i++ {
		if err := e.Set([]byte(fmt.Sprintf("l0-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for lvl := 1; lvl <= 3; lvl++ {
		for tbl := 0; tbl < 4; tbl++ {
			var entries []Entry
			for k := 0; k < 8; k++ {
				entries = append(entries, Entry{
					Key:   []byte(fmt.Sprintf("l%d-%d%d", lvl, tbl, k)),
					Value: []byte("v"),
				})
			}
			e.mu.levels[lvl] = append(e.mu.levels[lvl], newSSTable(e.mu.nextID, entries))
			e.mu.nextID++
		}
	}
	return e
}

// BenchmarkKVWriteFlush measures the write path through memtable rotation.
func BenchmarkKVWriteFlush(b *testing.B) {
	e := newManualEngine(Options{MemTableSize: 64 << 10})
	defer e.Close()
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Set([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVMemTableInsert measures the engine's write path into the
// memtable alone: ApplyBatch of a TPC-C-shaped batch — 14 new row keys of
// 60-110 byte values, an intent-resolution tombstone and the range's
// applied-index rewrite (an 8-byte value) — into a memtable too large to
// rotate. Every 2 000 batches the engine is replaced outside the timer, so
// the chunks a memtable grows through are part of what is measured.
func BenchmarkKVMemTableInsert(b *testing.B) {
	const perEngine = 2000
	batches := make([][]Entry, perEngine)
	applied := []byte("/Local/RangeID/1/r/AppliedIndex")
	for i := range batches {
		for j := 0; j < 14; j++ {
			batches[i] = append(batches[i], Entry{
				Key:   []byte(fmt.Sprintf("/Tenant/5/Table/%d/1/%08d", 53+j%4, i*14+j)),
				Value: bytes.Repeat([]byte{byte(j)}, 60+j*4),
			})
		}
		batches[i] = append(batches[i],
			Entry{Key: []byte(fmt.Sprintf("/Local/Lock/%08d", i)), Tombstone: true},
			Entry{Key: applied, Value: []byte("00000000")})
	}
	var e *Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perEngine == 0 {
			b.StopTimer()
			if e != nil {
				e.Close()
			}
			e = New(Options{MemTableSize: 64 << 20})
			b.StartTimer()
		}
		if err := e.ApplyBatch(batches[i%perEngine]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Close()
}

// BenchmarkKVIterSeek measures what every MVCC read pays: open an iterator
// over a narrow range, read its first entry, seek once within it. memtable is
// 10 000 keys in the active memtable alone; deep is buildDeepEngine's shape,
// a 10-file L0 backlog over populated L1-L3, where the range lives in L3.
func BenchmarkKVIterSeek(b *testing.B) {
	mem := New(Options{MemTableSize: 64 << 20})
	defer mem.Close()
	for i := 0; i < 10000; i++ {
		if err := mem.Set([]byte(fmt.Sprintf("key-%05d-%02d", i/10, i%10)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	deep := buildDeepEngine(b)
	defer deep.Close()
	for _, shape := range []struct {
		name         string
		e            *Engine
		lo, hi, seek string
	}{
		{"memtable", mem, "key-00500-", "key-00500-99", "key-00500-07"},
		{"deep", deep, "l3-2", "l3-29", "l3-25"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			lo, hi, seek := []byte(shape.lo), []byte(shape.hi), []byte(shape.seek)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := shape.e.NewIter(lo, hi)
				if !it.Valid() || !bytes.HasPrefix(it.Key(), lo) {
					b.Fatal("iterator not on the range's first key")
				}
				it.SeekGE(seek)
				if !it.Valid() || !bytes.Equal(it.Key(), seek) || it.Value() == nil {
					b.Fatalf("SeekGE(%q) landed on %q", seek, it.Key())
				}
			}
		})
	}
}

// BenchmarkKVIterScan measures what an MVCC scan pays the engine per entry:
// a forward scan of 2 000 keys, reading each key and value. memtable holds
// them in the active memtable alone; l1 in four L1 tables of 500 keys.
func BenchmarkKVIterScan(b *testing.B) {
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := []byte("a row value of about thirty bytes")
	mem := New(Options{MemTableSize: 64 << 20})
	defer mem.Close()
	for i := 0; i < n; i++ {
		if err := mem.Set(key(i), val); err != nil {
			b.Fatal(err)
		}
	}
	l1 := newManualEngine(Options{})
	defer l1.Close()
	l1.mu.Lock()
	for t := 0; t < 4; t++ {
		var entries []Entry
		for i := t * n / 4; i < (t+1)*n/4; i++ {
			entries = append(entries, Entry{Key: key(i), Value: val})
		}
		l1.mu.levels[1] = append(l1.mu.levels[1], newSSTable(l1.mu.nextID, entries))
		l1.mu.nextID++
	}
	l1.mu.Unlock()
	for _, shape := range []struct {
		name string
		e    *Engine
	}{{"memtable", mem}, {"l1", l1}} {
		b.Run(shape.name, func(b *testing.B) {
			lo, hi := []byte("key-"), []byte("key-~")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bytes := 0
				it := shape.e.NewIter(lo, hi)
				for ; it.Valid(); it.Next() {
					bytes += len(it.Key()) + len(it.Value())
				}
				if bytes != n*(len(key(0))+len(val)) {
					b.Fatalf("scanned %d bytes", bytes)
				}
			}
		})
	}
}

// BenchmarkKVRecovery measures the cold open of a crashed durable store:
// manifest load, sstable re-open, CRC verification, and WAL
// replay of everything written since the last flush. The store is sized so
// recovery covers both flushed state and a multi-segment WAL suffix; the kill
// leaves no torn tail, so the entire WAL replays.
func BenchmarkKVRecovery(b *testing.B) {
	const entries = 20000
	opts := Options{
		Durable:         NewDir(),
		MemTableSize:    256 << 10,
		WALBytesPerSync: 4 << 10,
	}
	e := New(opts)
	key := func(i int) []byte { return []byte(fmt.Sprintf("rec%06d", i)) }
	const chunk = 50
	for base := 0; base < entries; base += chunk {
		batch := make([]Entry, 0, chunk)
		for i := base; i < base+chunk; i++ {
			batch = append(batch, Entry{Key: key(i), Value: []byte(fmt.Sprintf("val-%06d", i))})
		}
		if err := e.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	e.Close()
	opts.Durable.Crash(0) // clean kill: everything synced survives

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		re, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, i := range []int{0, entries / 2, entries - 1} {
			if v, ok := get(b, re, key(i)); !ok || string(v) != fmt.Sprintf("val-%06d", i) {
				b.Fatalf("recovered key %q = %q (ok=%v)", key(i), v, ok)
			}
		}
		re.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/open")
}

// BenchmarkKVApplyTail measures the tail of ApplyBatch at default options:
// 32 MiB of 1 KiB values under random 8-byte keys, in batches of 64, from one
// writer and from four. Most batches only reach the memtable; the few that
// cross its threshold are the ones that may wait on a flush or a
// compaction, so the percentiles past p99 are the figures to read. It also
// reports compacted ÷ flushed bytes, the engine's write amplification below
// the memtable.
func BenchmarkKVApplyTail(b *testing.B) {
	const (
		valueSize = 1 << 10
		batchSize = 64
		batches   = (32 << 20) / valueSize / batchSize
	)
	value := bytes.Repeat([]byte{'v'}, valueSize)
	for _, writers := range []int{1, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			var lat []time.Duration
			var flushed, compacted int64
			for n := 0; n < b.N; n++ {
				e := New(Options{})
				per := make([][]time.Duration, writers)
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := randutil.NewRand(int64(n*writers + w + 1))
						batch := make([]Entry, batchSize)
						for i := range batch {
							batch[i] = Entry{Key: make([]byte, 8), Value: value}
						}
						for i := w; i < batches; i += writers {
							for j := range batch {
								binary.BigEndian.PutUint64(batch[j].Key, rng.Uint64())
							}
							start := time.Now()
							if err := e.ApplyBatch(batch); err != nil {
								b.Error(err)
								return
							}
							per[w] = append(per[w], time.Since(start))
						}
					}(w)
				}
				wg.Wait()
				m := e.Metrics()
				flushed += m.FlushedBytes
				compacted += m.CompactedBytes
				e.Close()
				for _, l := range per {
					lat = append(lat, l...)
				}
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			at := func(q float64) float64 {
				return float64(lat[int(q*float64(len(lat)-1))]) / float64(time.Microsecond)
			}
			b.ReportMetric(at(0.5), "p50-us")
			b.ReportMetric(at(0.99), "p99-us")
			b.ReportMetric(at(0.999), "p99.9-us")
			b.ReportMetric(at(1), "max-us")
			if flushed > 0 {
				b.ReportMetric(float64(compacted)/float64(flushed), "compacted/flushed")
			}
		})
	}
}
