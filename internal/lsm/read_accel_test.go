package lsm

import (
	"fmt"
	"sync"
	"testing"
)

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	var entries []Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("key-%05d", i))})
	}
	f := newBloomFilter(entries)
	for _, e := range entries {
		if !f.mayContain(e.Key) {
			t.Fatalf("false negative for %q", e.Key)
		}
	}
	// Absent keys mostly filter out: at ~10 bits/key the false-positive
	// rate is ~1%; allow a wide margin.
	fp := 0
	for i := 0; i < 1000; i++ {
		if f.mayContain([]byte(fmt.Sprintf("absent-%05d", i))) {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("false-positive rate too high: %d/1000", fp)
	}
	// A nil filter (empty table) admits everything rather than lying.
	var nilF *bloomFilter
	if !nilF.mayContain([]byte("anything")) {
		t.Fatal("nil filter must admit all keys")
	}
	if newBloomFilter(nil) != nil {
		t.Fatal("empty table should have no filter")
	}
}

func TestBloomFilterDeterministic(t *testing.T) {
	entries := []Entry{{Key: []byte("a")}, {Key: []byte("b")}, {Key: []byte("c")}}
	a, b := newBloomFilter(entries), newBloomFilter(entries)
	if fmt.Sprint(a.bits) != fmt.Sprint(b.bits) {
		t.Fatalf("same keys produced different filters:\n%v\n%v", a.bits, b.bits)
	}
}

// buildDeepEngine constructs the acceptance shape — a 10-file L0 backlog
// plus populated L1-L3. L0 keys are l0-*, and each deeper level holds 4
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

// TestReadAccelerationProbeReduction is the ≥5x acceptance criterion: point
// reads against a 10-file L0 + populated L1-L3 shape must probe at least 5x
// fewer sstables with bloom filters and the level-bound seek than probing
// every table would. That walk is fixed by the shape: a present L3 key in
// table i costs 10 + 4 + 4 + (i+1) probes and a miss 10 + 4 + 4 + 4, 1360
// over the reads below, so the bound is 1360/5 = 272.
func TestReadAccelerationProbeReduction(t *testing.T) {
	const probeEveryTable = 1360
	e := buildDeepEngine(t)
	defer e.Close()

	// Reads: every key present in L3 (the worst present-key case: all of
	// L0, L1, L2 must be ruled out first) plus an equal number of misses.
	var reads [][]byte
	for tbl := 0; tbl < 4; tbl++ {
		for k := 0; k < 8; k++ {
			reads = append(reads, []byte(fmt.Sprintf("l3-%d%d", tbl, k)))
			reads = append(reads, []byte(fmt.Sprintf("zz-%d%d", tbl, k)))
		}
	}
	for _, key := range reads {
		v, ok, err := e.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := key[0] == 'l'; ok != want {
			t.Fatalf("Get(%q) found=%v, want %v", key, ok, want)
		}
		if ok && string(v) != "v" {
			t.Fatalf("Get(%q) = %q", key, v)
		}
	}

	m := e.Metrics()
	if m.Reads != int64(len(reads)) {
		t.Fatalf("reads = %d, want %d", m.Reads, len(reads))
	}
	if m.TablesProbed == 0 {
		t.Fatal("probe counter not wired")
	}
	if m.TablesProbed > probeEveryTable/5 {
		t.Fatalf("acceleration below 5x: probed %d tables, bound %d", m.TablesProbed, probeEveryTable/5)
	}
	if m.BloomFiltered == 0 {
		t.Fatal("bloom filter never rejected a table")
	}
	t.Logf("tables probed: %d (probe-every-table %d), bloom filtered=%d",
		m.TablesProbed, probeEveryTable, m.BloomFiltered)
}

// TestConcurrentApplyBatchFlushAtThreshold is the regression test for the
// ApplyBatch/Flush race: with the memtable threshold at one byte, every
// single-entry batch must trigger exactly one flush of exactly that batch.
// Under the old two-critical-section scheme a concurrent writer could rotate
// the memtable between another writer's size check and its Flush call,
// merging or double-counting flushes nondeterministically.
func TestConcurrentApplyBatchFlushAtThreshold(t *testing.T) {
	const writers, batches = 8, 20
	e := newManualEngine(Options{MemTableSize: 1})
	defer e.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				key := []byte(fmt.Sprintf("w%02d-b%02d", w, b))
				if err := e.ApplyBatch([]Entry{{Key: key, Value: []byte("v")}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := e.Metrics()
	if m.FlushCount != writers*batches {
		t.Fatalf("FlushCount = %d, want exactly %d (one flush per threshold-crossing batch)",
			m.FlushCount, writers*batches)
	}
	if m.L0Files != writers*batches {
		t.Fatalf("L0Files = %d, want %d", m.L0Files, writers*batches)
	}
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			key := []byte(fmt.Sprintf("w%02d-b%02d", w, b))
			if _, ok, err := e.Get(key); err != nil || !ok {
				t.Fatalf("key %q lost (ok=%v err=%v)", key, ok, err)
			}
		}
	}
}
