package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/randutil"
)

// rotateWithoutBuild performs the under-lock half of a pipelined flush and
// returns the pending job, leaving the engine in the mid-pipeline state a
// reader can observe: data in the immutable queue, not yet in L0.
func rotateWithoutBuild(t *testing.T, e *Engine) *flushJob {
	t.Helper()
	e.mu.Lock()
	sp, job, err := e.flushLocked()
	e.mu.Unlock()
	if err != nil || job == nil {
		t.Fatalf("flushLocked = job=%v err=%v", job, err)
	}
	sp.Finish()
	return job
}

// While a rotated memtable's SSTable build is in flight, its data must stay
// readable from the immutable queue, new writes must land in the fresh
// memtable, and Metrics must count the extra sorted run.
func TestImmutableMemtableVisibleDuringBuild(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("a"), []byte("1"))
	e.Set([]byte("b"), []byte("2"))

	job := rotateWithoutBuild(t, e)

	// Mid-pipeline: nothing in L0 yet, data only in the immutable queue.
	m := e.Metrics()
	if m.L0Files != 0 || m.FlushCount != 0 {
		t.Fatalf("mid-build metrics: L0Files=%d FlushCount=%d", m.L0Files, m.FlushCount)
	}
	if m.ReadAmplification != 2 { // active memtable + 1 immutable
		t.Fatalf("mid-build read amp = %d, want 2", m.ReadAmplification)
	}
	if v, ok := get(t, e, []byte("a")); !ok || string(v) != "1" {
		t.Fatalf("rotated data unreadable mid-build: %q %v", v, ok)
	}
	// Writes during the build land in the fresh memtable and shadow the
	// immutable queue.
	e.Set([]byte("a"), []byte("1x"))
	if v, _ := get(t, e, []byte("a")); string(v) != "1x" {
		t.Fatalf("fresh memtable does not shadow immutable queue: %q", v)
	}

	e.buildAndInstall(nil, job)

	m = e.Metrics()
	if m.L0Files != 1 || m.FlushCount != 1 || m.ReadAmplification != 2 {
		t.Fatalf("post-install metrics: L0Files=%d FlushCount=%d amp=%d",
			m.L0Files, m.FlushCount, m.ReadAmplification)
	}
	if v, _ := get(t, e, []byte("a")); string(v) != "1x" {
		t.Fatalf("post-install get(a) = %q", v)
	}
	if v, ok := get(t, e, []byte("b")); !ok || string(v) != "2" {
		t.Fatalf("post-install get(b) = %q %v", v, ok)
	}
}

// Two rotations can be in flight at once; installing them out of order must
// not invert shadowing, because L0 ordering goes by table id (= rotation
// order), not install order.
func TestOutOfOrderInstallKeepsShadowing(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("old"))
	first := rotateWithoutBuild(t, e)
	e.Set([]byte("k"), []byte("new"))
	second := rotateWithoutBuild(t, e)

	// Install the newer rotation first, then the older one.
	e.buildAndInstall(nil, second)
	e.buildAndInstall(nil, first)

	if v, _ := get(t, e, []byte("k")); string(v) != "new" {
		t.Fatalf("out-of-order install inverted shadowing: get(k) = %q", v)
	}
	e.mu.RLock()
	l0 := e.mu.levels[0]
	e.mu.RUnlock()
	if len(l0) != 2 || l0[0].id <= l0[1].id {
		t.Fatalf("L0 not newest-first by id: %d tables", len(l0))
	}
}

// An L0→L1 compaction must not move a table past an older flush still in
// flight: the older flush installs into L0 afterwards, above L1, and would
// shadow the newer data with its stale version.
func TestCompactionSkipsL0YoungerThanInFlightFlush(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("old"))
	first := rotateWithoutBuild(t, e)
	e.Set([]byte("k"), []byte("new"))
	second := rotateWithoutBuild(t, e)

	e.buildAndInstall(nil, second)
	e.Compact()
	e.buildAndInstall(nil, first)

	if v, _ := get(t, e, []byte("k")); string(v) != "new" {
		t.Fatalf("get(k) = %q, want new", v)
	}
	e.Compact() // nothing in flight now: both tables compact
	if v, _ := get(t, e, []byte("k")); string(v) != "new" {
		t.Fatalf("after full compaction get(k) = %q, want new", v)
	}
	if m := e.Metrics(); m.L0Files != 0 {
		t.Fatalf("L0Files = %d after full compaction, want 0", m.L0Files)
	}
}

// Drive the three compaction phases by hand with reads, writes, and a flush
// interleaved into the merge window: the install must keep the tables that
// arrived mid-merge and the merged output must not lose or resurrect keys.
func TestCompactionMergeWindowAllowsProgress(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	for i := 0; i < 4; i++ {
		e.Set([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("v%d", i)))
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: plan under the lock.
	e.mu.Lock()
	plan := e.planCompactionLocked(0)
	e.mu.Unlock()
	if plan == nil || len(plan.inputs) != 4 {
		t.Fatalf("plan = %+v", plan)
	}

	// Merge window: the engine lock is free, so reads, writes, and even a
	// whole flush proceed while the merge would be running.
	if v, ok := get(t, e, []byte("key-00")); !ok || string(v) != "v0" {
		t.Fatalf("read during merge window: %q %v", v, ok)
	}
	e.Set([]byte("key-00"), []byte("v0-new"))
	e.Set([]byte("mid-merge"), []byte("late"))
	if err := e.Flush(); err != nil { // prepends a 5th L0 table mid-merge
		t.Fatal(err)
	}

	// Phases 2+3: merge outside the lock, install under it.
	e.mergeAndInstall(plan)

	m := e.Metrics()
	if m.CompactionCount != 1 {
		t.Fatalf("CompactionCount = %d", m.CompactionCount)
	}
	// The mid-merge flush survived in L0; the four planned inputs moved to L1.
	if m.L0Files != 1 {
		t.Fatalf("L0Files = %d, want 1 (the mid-merge flush)", m.L0Files)
	}
	if v, _ := get(t, e, []byte("key-00")); string(v) != "v0-new" {
		t.Fatalf("mid-merge overwrite lost: %q", v)
	}
	if v, ok := get(t, e, []byte("mid-merge")); !ok || string(v) != "late" {
		t.Fatalf("mid-merge write lost: %q %v", v, ok)
	}
	for i := 1; i < 4; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if v, ok := get(t, e, []byte(k)); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("compacted key %s = %q %v", k, v, ok)
		}
	}
}

// A merge whose inputs were superseded before install must be discarded:
// nothing changes and no compaction is counted.
func TestCompactionInstallAbandonedWhenInputsGone(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		e.Flush()
	}
	e.mu.Lock()
	stale := e.planCompactionLocked(0)
	e.mu.Unlock()

	// A competing round completes first, consuming the stale plan's inputs.
	e.Compact()
	before := e.Metrics()

	e.mergeAndInstall(stale)

	after := e.Metrics()
	if after.CompactionCount != before.CompactionCount {
		t.Fatalf("stale install counted: %d -> %d", before.CompactionCount, after.CompactionCount)
	}
	if after.L0Files != before.L0Files || after.LevelBytes != before.LevelBytes {
		t.Fatalf("stale install mutated levels: %+v -> %+v", before.LevelBytes, after.LevelBytes)
	}
	for i := 0; i < 3; i++ {
		if _, ok := get(t, e, []byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost after abandoned install", i)
		}
	}
}

// Regression test for the compaction stampede: auto-compaction triggers that
// find a round in flight must be absorbed (counted, not queued), and the
// backlog must drain on a later trigger once the round ends.
func TestCompactionSingleFlightCoalesces(t *testing.T) {
	e := newEngineWithL0(Options{
		MemTableSize: 64, // every small batch crosses the threshold
	}, 2)
	defer e.Close()

	write := func(i int) {
		if err := e.Set([]byte(fmt.Sprintf("key-%04d", i)), []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the single-flight guard as an in-flight round would, then trigger
	// auto-compaction via threshold-crossing writes.
	e.compactMu.Lock()
	for i := 0; i < 6; i++ {
		write(i)
	}
	held := e.Metrics()
	e.compactMu.Unlock()

	if held.CompactionsCoalesced == 0 {
		t.Fatal("no triggers coalesced while a round was in flight")
	}
	if held.CompactionCount != 0 {
		t.Fatalf("CompactionCount = %d while guard held", held.CompactionCount)
	}
	if held.L0Files < e.l0Threshold {
		t.Fatalf("backlog did not build: L0Files = %d", held.L0Files)
	}

	// The next trigger drains the whole backlog.
	write(6)
	drained := e.Metrics()
	if drained.CompactionCount == 0 {
		t.Fatal("backlog not drained after guard released")
	}
	if drained.L0Files >= e.l0Threshold {
		t.Fatalf("L0 backlog remains: %d files", drained.L0Files)
	}
	for i := 0; i <= 6; i++ {
		if _, ok := get(t, e, []byte(fmt.Sprintf("key-%04d", i))); !ok {
			t.Fatalf("key-%04d lost across coalesced rounds", i)
		}
	}
}

// Reads must complete while a compaction merge is actually in flight: start
// a large manual compaction and require at least one read that both began and
// finished with the merge still running (the mergesActive hook).
func TestReadsCompleteWhileMergeActive(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	const tables, perTable = 4, 25000
	for tbl := 0; tbl < tables; tbl++ {
		entries := make([]Entry, 0, perTable)
		for k := 0; k < perTable; k++ {
			entries = append(entries, Entry{
				Key:   []byte(fmt.Sprintf("t%d-%06d", tbl, k)),
				Value: []byte("0123456789abcdef"),
			})
		}
		if err := e.ApplyBatch(entries); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Compact()
	}()
	overlapped := 0
	rng := randutil.NewRand(7)
	for {
		select {
		case <-done:
			if overlapped == 0 {
				t.Fatal("no read overlapped an in-flight merge")
			}
			return
		default:
		}
		if e.mergesActive.Load() == 0 {
			continue
		}
		k := []byte(fmt.Sprintf("t%d-%06d", rng.Intn(tables), rng.Intn(perTable)))
		if _, ok := get(t, e, k); !ok {
			t.Fatalf("read of %s during merge found nothing", k)
		}
		if e.mergesActive.Load() > 0 {
			overlapped++
		}
	}
}

// Concurrent readers and writers against tiny memtables force constant
// flushes and compactions; under -race this is the pipeline's lock-discipline
// test, and the final state must match a per-writer shadow map.
func TestConcurrentReadersWritersDuringFlushAndCompaction(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		e := newEngineWithL0(Options{MemTableSize: 256}, 2)
		defer e.Close()

		const writers, readers, perWriter = 4, 3, 120
		var writerWg, readerWg sync.WaitGroup
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
					// Whatever is visible must be a value some writer
					// actually wrote for this key.
					if v, ok := get(t, e, []byte(fmt.Sprintf("w%d-%04d", w, i))); ok && len(v) == 0 {
						t.Errorf("empty value for w%d-%04d", w, i)
						return
					}
				}
			}(r)
		}
		for w := 0; w < writers; w++ {
			writerWg.Add(1)
			go func(w int) {
				defer writerWg.Done()
				for i := 0; i < perWriter; i++ {
					k := []byte(fmt.Sprintf("w%d-%04d", w, i))
					v := []byte(fmt.Sprintf("val-%d-%d-%032d", w, i, i))
					if err := e.Set(k, v); err != nil {
						t.Error(err)
						return
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

		e.Compact()
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				want := fmt.Sprintf("val-%d-%d-%032d", w, i, i)
				if v, ok := get(t, e, []byte(k)); !ok || string(v) != want {
					t.Fatalf("%s = %q %v, want %q", k, v, ok, want)
				}
			}
		}
	})
}

// Randomized-interleave property test: a seeded op stream (set, delete,
// batch, flush, compact) runs against the engine and a shadow map, checking
// every read. The stream is deterministic per seed, so failures replay
// exactly.
func TestRandomizedOpsMatchShadowMap(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			e := newEngineWithL0(Options{MemTableSize: 512}, 2)
			rng := randutil.NewRand(seed)
			shadow := map[string]string{}
			key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(200))) }
			for op := 0; op < 2000; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // set
					k := key()
					v := []byte(fmt.Sprintf("v%d", op))
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
				case 5: // batch
					n := 1 + rng.Intn(8)
					ents := make([]Entry, 0, n)
					for j := 0; j < n; j++ {
						k := key()
						if rng.Intn(5) == 0 {
							ents = append(ents, Entry{Key: k, Tombstone: true})
							delete(shadow, string(k))
						} else {
							v := fmt.Sprintf("b%d-%d", op, j)
							ents = append(ents, Entry{Key: k, Value: []byte(v)})
							shadow[string(k)] = v
						}
					}
					if err := e.ApplyBatch(ents); err != nil {
						t.Fatal(err)
					}
				case 6: // flush
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
				case 7: // manual compaction
					if op%7 == 0 {
						e.Compact()
					}
				default: // get
					k := key()
					v, ok := get(t, e, k)
					want, inShadow := shadow[string(k)]
					if ok != inShadow || (ok && string(v) != want) {
						t.Fatalf("seed %d op %d: get(%s) = %q %v, shadow %q %v",
							seed, op, k, v, ok, want, inShadow)
					}
				}
			}
			// Full sweep after the stream.
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%03d", i)
				v, ok := get(t, e, []byte(k))
				want, inShadow := shadow[k]
				if ok != inShadow || (ok && string(v) != want) {
					t.Fatalf("seed %d sweep: %s = %q %v, shadow %q %v", seed, k, v, ok, want, inShadow)
				}
			}
			e.Close()
		}
	})
}

// Randomized-interleave property test with range scans: a seeded op stream
// of sets, deletes, forced flushes and compactions, range scans and point
// reads runs against the engine and a shadow map. Values are of two sizes, a
// few bytes and up to 88, and every scan window is cross-checked both ways
// against the shadow map.
func TestRandomizedOpsWithScans(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := newEngineWithL0(Options{MemTableSize: 512}, 2)
		rng := randutil.NewRand(seed)
		shadow := map[string]string{}
		key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(200))) }
		value := func(op int) []byte {
			if rng.Intn(2) == 0 {
				return bigVal(fmt.Sprintf("big-%d-", op), 24+rng.Intn(64))
			}
			return []byte(fmt.Sprintf("v%d", op))
		}
		for op := 0; op < 2000; op++ {
			switch rng.Intn(10) {
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
			case 6: // manual compaction
				if op%7 == 0 {
					e.Compact()
				}
			case 7: // scan a window and cross-check the shadow map
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
				v, ok := get(t, e, k)
				want, inShadow := shadow[string(k)]
				if ok != inShadow || (ok && string(v) != want) {
					t.Fatalf("seed %d op %d: get(%s) = %q %v, shadow %q %v",
						seed, op, k, v, ok, want, inShadow)
				}
			}
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, ok := get(t, e, []byte(k))
			want, inShadow := shadow[k]
			if ok != inShadow || (ok && string(v) != want) {
				t.Fatalf("seed %d sweep: %s = %q %v, shadow %q %v", seed, k, v, ok, want, inShadow)
			}
		}
		e.Close()
	}
}

// Concurrent readers and overwriting writers while a dedicated goroutine
// forces full compactions; under -race this is the lock-discipline test for
// manual compaction racing auto-compaction, flushes and reads, and the final
// state must match what the writers wrote last.
func TestConcurrentReadersWritersWithCompactor(t *testing.T) {
	e := newEngineWithL0(Options{MemTableSize: 512}, 2)
	defer e.Close()

	const writers, readers, perWriter = 4, 3, 120
	var writerWg, readerWg, compactWg sync.WaitGroup
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
				if v, ok := get(t, e, []byte(fmt.Sprintf("w%d-%04d", w, i))); ok && len(v) == 0 {
					t.Errorf("empty value for w%d-%04d", w, i)
					return
				}
			}
		}(r)
	}
	compactWg.Add(1)
	go func() {
		defer compactWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Compact()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := e.Set(k, bigVal(fmt.Sprintf("val-%d-%d-", w, i), 48)); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 { // churn: overwrite, so merges drop shadowed versions
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
	compactWg.Wait()

	e.Compact()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-%04d", w, i)
			want := bigVal(fmt.Sprintf("val-%d-%d-", w, i), 48)
			if i%2 == 1 {
				want = bigVal(fmt.Sprintf("ovr-%d-%d-", w, i), 48)
			}
			if v, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s = %d bytes %v, want %d bytes", k, len(v), ok, len(want))
			}
		}
	}
}

// Same seed, same ops, run twice: the flush/compaction counts must agree and
// both engines must hold exactly the shadow map's contents — the synchronous
// build handoff keeps a seeded run reproducible even though builds and merges
// run outside the engine lock.
func TestPipeliningModeEquivalence(t *testing.T) {
	run := func() (*Engine, map[string]string) {
		e := newEngineWithL0(Options{MemTableSize: 512}, 2)
		rng := randutil.NewRand(42)
		shadow := map[string]string{}
		for op := 0; op < 1500; op++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(150))
			switch rng.Intn(8) {
			case 0:
				e.Delete([]byte(k))
				delete(shadow, k)
			case 1:
				e.Flush()
			default:
				v := fmt.Sprintf("v%d", op)
				e.Set([]byte(k), []byte(v))
				shadow[k] = v
			}
		}
		e.Compact()
		return e, shadow
	}
	first, shadow := run()
	second, _ := run()
	defer first.Close()
	defer second.Close()
	fm, sm := first.Metrics(), second.Metrics()
	if fm.FlushCount != sm.FlushCount || fm.CompactionCount != sm.CompactionCount {
		t.Fatalf("op counts diverge: first flush=%d compact=%d, second flush=%d compact=%d",
			fm.FlushCount, fm.CompactionCount, sm.FlushCount, sm.CompactionCount)
	}
	for _, e := range []*Engine{first, second} {
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, ok := get(t, e, []byte(k))
			want, inShadow := shadow[k]
			if ok != inShadow || (ok && string(v) != want) {
				t.Fatalf("%s = %q %v, shadow %q %v", k, v, ok, want, inShadow)
			}
		}
	}
}
