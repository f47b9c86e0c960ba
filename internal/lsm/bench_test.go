package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// BenchmarkKVPointReadDeepL0 measures point reads against the deep shape (a
// 10-file L0 backlog plus populated L1-L3).
func BenchmarkKVPointReadDeepL0(b *testing.B) {
	e := buildDeepEngine(b)
	defer e.Close()
	// Alternate L3 hits (worst present-key case) and misses.
	var reads [][]byte
	for tbl := 0; tbl < 4; tbl++ {
		for k := 0; k < 8; k++ {
			reads = append(reads, []byte(fmt.Sprintf("l3-%d%d", tbl, k)))
			reads = append(reads, []byte(fmt.Sprintf("zz-%d%d", tbl, k)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Get(reads[i%len(reads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVBloomFilter measures the filter probe itself on hits and misses.
func BenchmarkKVBloomFilter(b *testing.B) {
	var entries []Entry
	for i := 0; i < 4096; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("key-%06d", i))})
	}
	f := newBloomFilter(entries)
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !f.mayContain(entries[i%len(entries)].Key) {
				b.Fatal("false negative")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		miss := []byte("absent-000000")
		for i := 0; i < b.N; i++ {
			f.mayContain(miss)
		}
	})
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

// BenchmarkKVIterSeek measures what every MVCC read pays: open an iterator
// over a narrow range, read its first entry, seek once within it. memtable is
// 10 000 keys in the active memtable alone; deep is the acceleration shape, a
// 10-file L0 backlog over populated L1-L3, where the range lives in L3.
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

// BenchmarkKVRecovery measures the cold open of a crashed durable store:
// manifest load, sstable and value-log re-open, CRC verification, and WAL
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
			v, ok, err := re.Get(key(i))
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%06d", i) {
				b.Fatalf("recovered key %q = %q (ok=%v err=%v)", key(i), v, ok, err)
			}
		}
		re.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/open")
}
