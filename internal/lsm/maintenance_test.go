package lsm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdbserverless/internal/randutil"
)

// levelIDs renders each non-empty level's table IDs in level order, as
// "L0[9 7] L1[8]".
func levelIDs(e *Engine) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var parts []string
	for lvl, tables := range e.mu.levels {
		if len(tables) == 0 {
			continue
		}
		ids := make([]string, len(tables))
		for i, t := range tables {
			ids[i] = fmt.Sprint(t.id)
		}
		parts = append(parts, fmt.Sprintf("L%d[%s]", lvl, strings.Join(ids, " ")))
	}
	return strings.Join(parts, " ")
}

// One writer's maintenance is a fixed sequence: each seeded stream of
// batches, against a 4 KiB memtable and a 64 KiB L1 target, crosses
// L0→L1 and L1→L2 compactions and ends in exactly these counts, bytes and
// table IDs. A writer alone never finds maintenance running, so it flushes
// and compacts exactly when its own rotation asks.
func TestSingleWriterMaintenanceSequence(t *testing.T) {
	for _, tc := range []struct {
		seed                 int64
		flushes, compactions int64
		flushedB, compactedB int64
		levels               string
	}{
		{1, 119, 35, 514102, 2461958, "L0[154 153 152] L1[151] L2[146]"},
		{2, 123, 36, 531799, 2646078, "L0[159 158 157] L2[156]"},
		{3, 120, 36, 517820, 2634388, "L2[156]"},
	} {
		e := New(Options{MemTableSize: 4 << 10})
		e.lBaseMax = 64 << 10
		rng := randutil.NewRand(tc.seed)
		for b := 0; b < 1500; b++ {
			n := 1 + rng.Intn(4)
			batch := make([]Entry, n)
			for i := range batch {
				batch[i].Key = []byte(fmt.Sprintf("key-%05d", rng.Intn(3000)))
				if rng.Intn(10) == 0 {
					batch[i].Tombstone = true
				} else {
					batch[i].Value = bigVal(fmt.Sprintf("v%d-%d-", b, i), 64+rng.Intn(128))
				}
			}
			if err := e.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		m := e.Metrics()
		got := fmt.Sprintf("flushes=%d compactions=%d flushed=%d compacted=%d %s",
			m.FlushCount, m.CompactionCount, m.FlushedBytes, m.CompactedBytes, levelIDs(e))
		want := fmt.Sprintf("flushes=%d compactions=%d flushed=%d compacted=%d %s",
			tc.flushes, tc.compactions, tc.flushedB, tc.compactedB, tc.levels)
		if got != want {
			t.Errorf("seed %d:\n got %s\nwant %s", tc.seed, got, want)
		}
		e.Close()
	}
}

// rotate swaps the active memtable into the immutable queue and leaves it
// there, undrained: the state a reader sees while the drain is busy.
func rotate(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	rotated, err := e.rotateLocked()
	e.mu.Unlock()
	if !rotated || err != nil {
		t.Fatalf("rotateLocked = %v, %v", rotated, err)
	}
}

// waiting returns the number of rotated memtables waiting for the drain.
func waiting(e *Engine) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.mu.imm)
}

// holdFirst makes the engine's first job of the given kind ("flush" or
// "compact") wait, once it has started, until release is closed; started
// closes as it starts.
func holdFirst(e *Engine, kind string) (started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	e.jobStarted = func(job string) func() {
		if job == kind && held.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
		return func() {}
	}
	return started, release
}

// waitPastBound waits until more than maxWaitingMemTables memtables wait
// for the drain. After 30 s it fails the test, first closing release so the
// job it holds cannot hang the package.
func waitPastBound(t *testing.T, e *Engine, release chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for waiting(e) <= maxWaitingMemTables {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d memtables waiting after 30 s, want more than %d", waiting(e), maxWaitingMemTables)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// While a rotated memtable waits for the drain, its data must stay
// readable from the immutable queue, new writes must land in the fresh
// memtable, and Metrics must count the extra sorted run.
func TestImmutableMemtableVisibleDuringBuild(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("a"), []byte("1"))
	e.Set([]byte("b"), []byte("2"))

	rotate(t, e)

	// Before the drain: nothing in L0 yet, data only in the immutable queue.
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

	e.drain(true)

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

// While a compaction's merge runs the engine lock is free: reads see the
// merge's inputs, and writes land and rotate. A memtable rotated during the
// merge stays readable in the immutable queue and installs into L0 after
// the merge, above its output.
func TestCompactionMergeWindowAllowsProgress(t *testing.T) {
	e := newManualEngine(Options{MemTableSize: 64}) // a 64-byte value rotates
	defer e.Close()
	val := func(s string) []byte { return bigVal(s, 64) }
	for i := 0; i < 4; i++ {
		e.Set([]byte(fmt.Sprintf("key-%02d", i)), val(fmt.Sprintf("v%d-", i)))
	}
	if m := e.Metrics(); m.L0Files != 4 {
		t.Fatalf("L0Files = %d before the merge, want 4", m.L0Files)
	}
	started, release := holdFirst(e, "compact")
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		e.Compact()
	}()
	<-started

	// Merge window: reads, overwrites and rotations proceed; the writers
	// find the drain running (Compact holds it) and return.
	if v, ok := get(t, e, []byte("key-00")); !ok || !bytes.Equal(v, val("v0-")) {
		t.Fatalf("read during merge window: %q %v", v, ok)
	}
	e.Set([]byte("key-00"), val("v0-new-"))
	e.Set([]byte("mid-merge"), val("late-"))
	if m := e.Metrics(); m.L0Files != 4 || m.FlushCount != 4 || waiting(e) != 2 {
		t.Fatalf("mid-merge: L0Files=%d FlushCount=%d waiting=%d, want 4, 4, 2",
			m.L0Files, m.FlushCount, waiting(e))
	}
	if v, _ := get(t, e, []byte("key-00")); !bytes.Equal(v, val("v0-new-")) {
		t.Fatalf("mid-merge overwrite unreadable from the queue: %q", v)
	}

	close(release)
	<-compacted
	m := e.Metrics()
	if m.L0Files != 2 || m.FlushCount != 6 || waiting(e) != 0 {
		t.Fatalf("after the merge: L0Files=%d FlushCount=%d waiting=%d, want 2, 6, 0",
			m.L0Files, m.FlushCount, waiting(e))
	}
	if ids := levelIDs(e); ids != "L0[7 6] L6[12]" {
		t.Fatalf("levels %s, want the mid-merge tables in L0, newest first, over the compacted ones", ids)
	}
	if v, _ := get(t, e, []byte("key-00")); !bytes.Equal(v, val("v0-new-")) {
		t.Fatalf("mid-merge overwrite lost: %q", v)
	}
	if v, ok := get(t, e, []byte("mid-merge")); !ok || !bytes.Equal(v, val("late-")) {
		t.Fatalf("mid-merge write lost: %q %v", v, ok)
	}
	for i := 1; i < 4; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if v, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(v, val(fmt.Sprintf("v%d-", i))) {
			t.Fatalf("compacted key %s = %q %v", k, v, ok)
		}
	}
}

// A writer that finds the drain running returns without building: its
// memtable waits, readable, in the immutable queue, and the running drain
// installs it once its merge ends.
func TestCompactionSingleFlightCoalesces(t *testing.T) {
	e := newEngineWithL0(Options{MemTableSize: 64}, 2) // a 64-byte value rotates
	defer e.Close()
	write := func(i int) {
		if err := e.Set([]byte(fmt.Sprintf("key-%04d", i)), bigVal(fmt.Sprintf("v%d-", i), 64)); err != nil {
			t.Error(err)
		}
	}
	started, release := holdFirst(e, "compact")
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		write(0)
		write(1) // L0 reaches two files: this writer's drain merges them
	}()
	<-started

	for i := 2; i < 2+maxWaitingMemTables; i++ {
		write(i) // rotates, finds the drain running, returns
	}
	held := e.Metrics()
	if held.FlushCount != 2 || held.CompactionCount != 0 || waiting(e) != maxWaitingMemTables {
		t.Fatalf("merge held: FlushCount=%d CompactionCount=%d waiting=%d, want 2, 0, %d",
			held.FlushCount, held.CompactionCount, waiting(e), maxWaitingMemTables)
	}
	for i := 2; i < 2+maxWaitingMemTables; i++ {
		if _, ok := get(t, e, []byte(fmt.Sprintf("key-%04d", i))); !ok {
			t.Fatalf("key-%04d unreadable while it waits", i)
		}
	}

	close(release)
	<-drained
	m := e.Metrics()
	// After its merge the drain installs the four waiting memtables, and
	// they merge in a second round.
	if m.FlushCount != 2+maxWaitingMemTables || m.CompactionCount != 2 || m.L0Files != 0 || waiting(e) != 0 {
		t.Fatalf("drained: FlushCount=%d CompactionCount=%d L0Files=%d waiting=%d",
			m.FlushCount, m.CompactionCount, m.L0Files, waiting(e))
	}
	for i := 0; i < 2+maxWaitingMemTables; i++ {
		if _, ok := get(t, e, []byte(fmt.Sprintf("key-%04d", i))); !ok {
			t.Fatalf("key-%04d lost across the drain", i)
		}
	}
}

// A writer whose rotation leaves more than maxWaitingMemTables waiting does
// not return until it has drained them: the engine's one write stall.
func TestDrainStallsWriterPastWaitingBound(t *testing.T) {
	e := newManualEngine(Options{MemTableSize: 64}) // a 64-byte value rotates
	defer e.Close()
	write := func(i int) {
		if err := e.Set([]byte(fmt.Sprintf("key-%04d", i)), bigVal("v", 64)); err != nil {
			t.Error(err)
		}
	}
	started, release := holdFirst(e, "flush")
	go write(0) // its drain's build is held; its memtable still waits
	<-started
	for i := 1; i < maxWaitingMemTables; i++ {
		write(i) // the queue fills to the bound; each writer returns
	}
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		write(maxWaitingMemTables)
	}()
	waitPastBound(t, e, release)
	select {
	case <-stalled:
		t.Fatal("the writer past the bound returned while the drain was held")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stalled
	if m := e.Metrics(); m.FlushCount != maxWaitingMemTables+1 || waiting(e) != 0 {
		t.Fatalf("after the stall: FlushCount=%d waiting=%d", m.FlushCount, waiting(e))
	}
}

// Concurrent writers cross the memtable threshold while a merge is held
// open. One maintenance job runs at a time; a writer that finds it running
// returns (or, past maxWaitingMemTables, waits its turn). Once every writer
// has returned, no memtable is left waiting, L0's IDs strictly descend, and
// every key reads what its writer wrote last.
func TestDrainOneJobAtATimeBesideHeldMerge(t *testing.T) {
	e := newEngineWithL0(Options{MemTableSize: 256}, 2)
	defer e.Close()
	var active atomic.Int32
	var held atomic.Bool
	release := make(chan struct{})
	e.jobStarted = func(job string) func() {
		if n := active.Add(1); n > 1 {
			t.Errorf("a %s job started beside %d other jobs", job, n-1)
		}
		if job == "compact" && held.CompareAndSwap(false, true) {
			<-release
		}
		return func() { active.Add(-1) }
	}

	const writers, perWriter = 4, 150
	want := make([]map[string][]byte, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		want[w] = map[string][]byte{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i%100) // the last 50 overwrite
				v := bigVal(fmt.Sprintf("val-%d-%d-", w, i), 48)
				if err := e.Set([]byte(k), v); err != nil {
					t.Error(err)
					return
				}
				want[w][k] = v
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Hold the first merge until some writer's rotation passes the bound,
	// so the held merge sees returning writers and a stalled one.
	waitPastBound(t, e, release)
	close(release)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the writers did not finish")
	}

	if n := waiting(e); n != 0 {
		t.Fatalf("%d memtables left waiting after every writer returned", n)
	}
	e.mu.RLock()
	l0 := e.mu.levels[0]
	e.mu.RUnlock()
	for i := 1; i < len(l0); i++ {
		if l0[i-1].id <= l0[i].id {
			t.Fatalf("L0 IDs do not strictly descend: %s", levelIDs(e))
		}
	}
	for w := range want {
		for k, v := range want[w] {
			if got, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s = %q %v, want %q", k, got, ok, v)
			}
		}
	}
}

// A durable engine installs and persists nothing once it is closed, whether
// the drain starts after Close or a build in flight finishes after it: the
// store's directory is the next incarnation's state, so it holds exactly
// what Close left.
func TestDrainInstallsNothingAfterClose(t *testing.T) {
	files := func(dir *Dir) map[string]string {
		out := map[string]string{}
		for _, name := range dir.List("") {
			b, _ := dir.ReadFile(name)
			out[name] = string(b)
		}
		return out
	}
	for _, inFlight := range []bool{false, true} {
		dir := NewDir()
		e := newManualEngine(Options{Durable: dir})
		if err := e.Set([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		rotate(t, e)
		var before map[string]string
		if inFlight {
			started, release := holdFirst(e, "flush")
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				e.drain(true)
			}()
			<-started
			e.Close()
			before = files(dir)
			close(release)
			<-drained
		} else {
			e.Close()
			before = files(dir)
			e.drain(true)
		}
		if after := files(dir); !reflect.DeepEqual(after, before) {
			t.Errorf("in flight %v: the drain changed the directory after Close: %d files, now %v",
				inFlight, len(before), dir.List(""))
		}
		if m := e.Metrics(); m.FlushCount != 0 || m.L0Files != 0 {
			t.Errorf("in flight %v: FlushCount=%d L0Files=%d after Close, want 0, 0", inFlight, m.FlushCount, m.L0Files)
		}
	}
}

// Reads must complete while a compaction merge is actually in flight: start
// a large manual compaction and require at least one read that both began and
// finished with the merge still running (counted through jobStarted).
func TestReadsCompleteWhileMergeActive(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	var merging atomic.Int32
	e.jobStarted = func(job string) func() {
		if job != "compact" {
			return func() {}
		}
		merging.Add(1)
		return func() { merging.Add(-1) }
	}
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
		if merging.Load() == 0 {
			continue
		}
		k := []byte(fmt.Sprintf("t%d-%06d", rng.Intn(tables), rng.Intn(perTable)))
		if _, ok := get(t, e, k); !ok {
			t.Fatalf("read of %s during merge found nothing", k)
		}
		if merging.Load() > 0 {
			overlapped++
		}
	}
}

// Concurrent readers and writers against tiny memtables force constant
// flushes and compactions; under -race this is the drain's lock-discipline
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
