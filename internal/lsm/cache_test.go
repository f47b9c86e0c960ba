package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdbserverless/internal/randutil"
)

// acceleratedOptions is the full-acceleration configuration the cache and
// property tests run under: aggressive value separation plus both caches.
func acceleratedOptions() Options {
	return Options{
		ValueThreshold:  16,
		VlogFileSize:    1 << 10,
		BlockCacheBytes: 32 << 10,
		HotKeyCacheSize: 64,
	}
}

// A repeated Get must hit the hot cache, and a write to the key must
// invalidate it: the very next read sees the new value, never the cached one.
func TestHotCacheWriteAfterHitInvalidates(t *testing.T) {
	e := New(acceleratedOptions())
	defer e.Close()
	if err := e.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := e.Get([]byte("k")); string(v) != "v1" { // fill
		t.Fatalf("first read = %q", v)
	}
	if v, _, _ := e.Get([]byte("k")); string(v) != "v1" { // hit
		t.Fatalf("second read = %q", v)
	}
	if hits := e.Metrics().HotCacheHits; hits == 0 {
		t.Fatal("repeat read did not hit the hot cache")
	}

	// Write-after-cache-hit: the stale-read check the issue demands.
	if err := e.Set([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := e.Get([]byte("k")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("read after overwrite = %q ok=%v err=%v (stale cache?)", v, ok, err)
	}

	// Deletion must invalidate too, and the not-found result is cacheable.
	if err := e.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get([]byte("k")); ok {
		t.Fatal("deleted key still visible (stale cache?)")
	}
	if _, ok, _ := e.Get([]byte("k")); ok {
		t.Fatal("deleted key visible on cached re-read")
	}
}

// A fill computed before a concurrent write's epoch bump must be rejected:
// the write may already have invalidated the key, and inserting afterwards
// would resurrect the stale value.
func TestHotCacheStaleFillRejected(t *testing.T) {
	hc := newHotCache(8)
	var epoch atomic.Uint64
	epoch.Store(5)

	hc.addHot([]byte("k"), []byte("stale"), true, 4, &epoch) // probe predates epoch 5
	if hc.len() != 0 {
		t.Fatal("stale fill accepted")
	}
	hc.addHot([]byte("k"), []byte("fresh"), true, 5, &epoch)
	if v, ok, hit := hc.get([]byte("k")); !hit || !ok || string(v) != "fresh" {
		t.Fatalf("current-epoch fill rejected: %q %v %v", v, ok, hit)
	}
}

// The hot cache is bounded: filling past capacity evicts in LRU order.
func TestHotCacheBoundedLRU(t *testing.T) {
	hc := newHotCache(2)
	var epoch atomic.Uint64
	hc.addHot([]byte("a"), []byte("1"), true, 0, &epoch)
	hc.addHot([]byte("b"), []byte("2"), true, 0, &epoch)
	hc.get([]byte("a")) // a is now most recently used
	hc.addHot([]byte("c"), []byte("3"), true, 0, &epoch)
	if hc.len() != 2 {
		t.Fatalf("cache over capacity: %d", hc.len())
	}
	if _, _, hit := hc.get([]byte("b")); hit {
		t.Fatal("LRU victim b survived")
	}
	if _, _, hit := hc.get([]byte("a")); !hit {
		t.Fatal("recently-used a evicted")
	}
}

// Repeated point reads of compacted data must serve block decodes from the
// block cache.
func TestBlockCacheServesRepeatReads(t *testing.T) {
	opts := acceleratedOptions()
	opts.HotKeyCacheSize = 0 // isolate the block cache
	e := newManualEngine(opts)
	defer e.Close()
	for i := 0; i < 200; i++ {
		if err := e.Set([]byte(fmt.Sprintf("k%04d", i)), bigVal(fmt.Sprintf("v%04d-", i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Compact()

	if v, ok, _ := e.Get([]byte("k0100")); !ok || !bytes.Equal(v, bigVal("v0100-", 64)) {
		t.Fatalf("first read = %d bytes ok=%v", len(v), ok)
	}
	m1 := e.Metrics()
	if m1.BlockCacheMisses == 0 {
		t.Fatal("first read recorded no block-cache miss")
	}
	if v, ok, _ := e.Get([]byte("k0100")); !ok || !bytes.Equal(v, bigVal("v0100-", 64)) {
		t.Fatalf("second read = %d bytes ok=%v", len(v), ok)
	}
	m2 := e.Metrics()
	if m2.BlockCacheHits <= m1.BlockCacheHits {
		t.Fatal("repeat read did not hit the block cache")
	}
}

// Compaction retiring a table must drop its blocks from the cache; the cached
// data of live tables survives.
func TestBlockCacheInvalidatedOnCompaction(t *testing.T) {
	opts := acceleratedOptions()
	opts.HotKeyCacheSize = 0
	e := newManualEngine(opts)
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), bigVal("gen1-", 64))
	}
	e.Flush()
	e.Compact()
	// Warm the cache against the current table set.
	for i := 0; i < 100; i += 10 {
		e.Get([]byte(fmt.Sprintf("k%04d", i)))
	}
	if e.blockCache.len() == 0 {
		t.Fatal("cache not warmed")
	}
	// Overwrite and compact again: the old tables retire and their blocks go.
	for i := 0; i < 100; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), bigVal("gen2-", 64))
	}
	e.Flush()
	e.Compact()
	e.mu.RLock()
	live := map[uint64]bool{}
	for lvl := 0; lvl < numLevels; lvl++ {
		for _, tbl := range e.mu.levels[lvl] {
			live[tbl.id] = true
		}
	}
	e.mu.RUnlock()
	for i := range e.blockCache.shards {
		s := &e.blockCache.shards[i]
		s.mu.Lock()
		for k := range s.items {
			if !live[k.tableID] {
				s.mu.Unlock()
				t.Fatalf("retired table %d still cached", k.tableID)
			}
		}
		s.mu.Unlock()
	}
	// Reads after the turnover see gen2 only.
	if v, ok, _ := e.Get([]byte("k0010")); !ok || !bytes.Equal(v, bigVal("gen2-", 64)) {
		t.Fatalf("post-compaction read = %d bytes ok=%v", len(v), ok)
	}
}

// Block-cache eviction is deterministic strict LRU per shard and never
// exceeds the byte budget.
func TestBlockCacheDeterministicEviction(t *testing.T) {
	run := func() []int {
		bc := newBlockCache(8 * 256) // 256 bytes per shard
		for i := 0; i < 64; i++ {
			bc.addBlock(uint64(i), 0, []Entry{{Key: []byte{byte(i)}}}, 100)
		}
		var present []int
		for i := 0; i < 64; i++ {
			if _, ok := bc.get(uint64(i), 0); ok {
				present = append(present, i)
			}
		}
		return present
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) >= 64 {
		t.Fatalf("eviction did not bound the cache: %d blocks live", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("eviction not deterministic: %v vs %v", a, b)
	}
	var bytesLive int64
	bc := newBlockCache(8 * 256)
	for i := 0; i < 64; i++ {
		bc.addBlock(uint64(i), 0, nil, 100)
	}
	for i := range bc.shards {
		s := &bc.shards[i]
		s.mu.Lock()
		if s.curB > s.capB {
			t.Fatalf("shard %d over budget: %d > %d", i, s.curB, s.capB)
		}
		bytesLive += s.curB
		s.mu.Unlock()
	}
	if bytesLive > 8*256 {
		t.Fatalf("cache over total budget: %d", bytesLive)
	}
}

// Randomized-interleave property test of the fully accelerated engine (value
// separation + both caches) against a shadow map, with forced flushes,
// compactions, and value-log GC rounds mixed into the op stream. Values
// straddle the separation threshold so both storage paths are exercised.
func TestRandomizedOpsWithSeparationAndCaches(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		opts := acceleratedOptions()
		opts.MemTableSize = 512
		e := newEngineWithL0(opts, 2)
		rng := randutil.NewRand(seed)
		shadow := map[string]string{}
		key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(200))) }
		value := func(op int) []byte {
			if rng.Intn(2) == 0 {
				return bigVal(fmt.Sprintf("big-%d-", op), 24+rng.Intn(64)) // separated
			}
			return []byte(fmt.Sprintf("v%d", op)) // inline
		}
		for op := 0; op < 2000; op++ {
			switch rng.Intn(11) {
			case 0, 1, 2, 3: // set
				k, v := key(), value(op)
				if err := e.Set(k, v); err != nil {
					t.Fatal(err)
				}
				shadow[string(k)] = string(v)
			case 4: // delete
				k := key()
				if err := e.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(shadow, string(k))
			case 5: // flush
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			case 6: // manual compaction (includes a GC pass)
				if op%7 == 0 {
					e.Compact()
				}
			case 7: // forced value-log GC round
				e.VlogGC()
			case 8: // scan a window and cross-check the shadow map
				lo := fmt.Sprintf("key-%03d", rng.Intn(200))
				hi := fmt.Sprintf("key-%03d", rng.Intn(200))
				if lo > hi {
					lo, hi = hi, lo
				}
				seen := map[string]string{}
				for it := e.NewIter([]byte(lo), []byte(hi)); it.Valid(); it.Next() {
					seen[string(it.Key())] = string(it.Value())
				}
				for k, want := range shadow {
					if k >= lo && k < hi {
						if got, ok := seen[k]; !ok || got != want {
							t.Fatalf("seed %d op %d: scan[%s,%s) missing %s (got %q ok=%v)",
								seed, op, lo, hi, k, got, ok)
						}
					}
				}
				for k, got := range seen {
					if want, ok := shadow[k]; !ok || want != got {
						t.Fatalf("seed %d op %d: scan surfaced %s=%q, shadow %q ok=%v",
							seed, op, k, got, want, ok)
					}
				}
			default: // get
				k := key()
				v, ok, err := e.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				want, inShadow := shadow[string(k)]
				if ok != inShadow || (ok && string(v) != want) {
					t.Fatalf("seed %d op %d: Get(%s) = %q %v, shadow %q %v",
						seed, op, k, v, ok, want, inShadow)
				}
			}
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, ok, err := e.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			want, inShadow := shadow[k]
			if ok != inShadow || (ok && string(v) != want) {
				t.Fatalf("seed %d sweep: %s = %q %v, shadow %q %v", seed, k, v, ok, want, inShadow)
			}
		}
		e.Close()
	}
}

// Concurrent readers and writers against the fully accelerated engine while
// a dedicated goroutine forces value-log GC rounds; under -race this is the
// lock-discipline test for the vlog and both caches, and the final state must
// match what the writers wrote.
func TestConcurrentReadersWritersWithVlogGC(t *testing.T) {
	opts := acceleratedOptions()
	opts.MemTableSize = 512
	e := newEngineWithL0(opts, 2)
	defer e.Close()

	const writers, readers, perWriter = 4, 3, 120
	var writerWg, readerWg, gcWg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			rng := randutil.NewRand(int64(1000 + r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := rng.Intn(writers)
				i := rng.Intn(perWriter)
				if v, ok, err := e.Get([]byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					t.Error(err)
					return
				} else if ok && len(v) == 0 {
					t.Errorf("empty value for w%d-%04d", w, i)
					return
				}
			}
		}(r)
	}
	gcWg.Add(1)
	go func() {
		defer gcWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.VlogGC()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				v := bigVal(fmt.Sprintf("val-%d-%d-", w, i), 48) // above threshold
				if err := e.Set(k, v); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 { // churn: overwrite to generate dead vlog bytes
					if err := e.Set(k, bigVal(fmt.Sprintf("ovr-%d-%d-", w, i), 48)); err != nil {
						t.Error(err)
						return
					}
				}
				if i%10 == 9 {
					if err := e.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { writerWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent load did not finish")
	}
	close(stop)
	readerWg.Wait()
	gcWg.Wait()

	e.Compact()
	e.VlogGC()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-%04d", w, i)
			var want []byte
			if i%2 == 1 {
				want = bigVal(fmt.Sprintf("ovr-%d-%d-", w, i), 48)
			} else {
				want = bigVal(fmt.Sprintf("val-%d-%d-", w, i), 48)
			}
			if v, ok, _ := e.Get([]byte(k)); !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s = %d bytes %v, want %d bytes", k, len(v), ok, len(want))
			}
		}
	}
}
