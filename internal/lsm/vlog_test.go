package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/randutil"
)

// bigVal returns a value of n bytes whose content encodes tag, so misdirected
// pointer resolution is caught by content checks, not just lengths.
func bigVal(tag string, n int) []byte {
	b := make([]byte, 0, n)
	for len(b) < n {
		b = append(b, tag...)
	}
	return b[:n]
}

// separatedOptions routes nearly every value to the value log, in segments
// small enough that a few hundred writes rotate and collect several.
func separatedOptions() Options {
	return Options{ValueThreshold: 16, VlogFileSize: 1 << 10}
}

// Values at or above the threshold must round-trip through the value log —
// across the memtable, a flush, and a compaction — while smaller values stay
// inline.
func TestValueSeparationRoundTrip(t *testing.T) {
	e := newManualEngine(Options{ValueThreshold: 32})
	defer e.Close()

	big := bigVal("big-a-", 64)
	small := []byte("inline")
	if err := e.Set([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := e.Set([]byte("small"), small); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.VlogWrites != 1 {
		t.Fatalf("VlogWrites = %d, want 1 (only the large value separates)", m.VlogWrites)
	}

	check := func(stage string) {
		t.Helper()
		if v, ok := get(t, e, []byte("big")); !ok || !bytes.Equal(v, big) {
			t.Fatalf("%s: get(big) = %d bytes, ok=%v", stage, len(v), ok)
		}
		if v, ok := get(t, e, []byte("small")); !ok || !bytes.Equal(v, small) {
			t.Fatalf("%s: get(small) = %q, ok=%v", stage, v, ok)
		}
		it := e.NewIter(nil, nil)
		got := map[string]string{}
		for ; it.Valid(); it.Next() {
			got[string(it.Key())] = string(it.Value())
		}
		if got["big"] != string(big) || got["small"] != string(small) {
			t.Fatalf("%s: scan resolved wrong values: big=%d bytes small=%q",
				stage, len(got["big"]), got["small"])
		}
	}
	check("memtable")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check("L0")
	e.Compact()
	check("compacted")
}

// GC must reclaim at least half the dead value bytes once compaction has
// reported the discards, without losing a single live value.
func TestVlogGCReclaimsDeadBytes(t *testing.T) {
	e := newManualEngine(Options{
		ValueThreshold: 16,
		VlogFileSize:   1 << 10,
	})
	defer e.Close()

	const keys, valLen = 64, 100
	for i := 0; i < keys; i++ {
		if err := e.Set([]byte(fmt.Sprintf("k%03d", i)), bigVal(fmt.Sprintf("g1-%03d-", i), valLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := e.Set([]byte(fmt.Sprintf("k%03d", i)), bigVal(fmt.Sprintf("g2-%03d-", i), valLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	before := e.Metrics()
	if before.VlogLiveBytes != 2*keys*valLen {
		t.Fatalf("pre-compaction live bytes = %d, want %d", before.VlogLiveBytes, 2*keys*valLen)
	}

	// Compaction drops the gen-1 versions, reports their discards, and runs
	// GC under the same single-flight guard.
	e.Compact()

	const dead = keys * valLen // every gen-1 value died
	after := e.Metrics()
	if after.VlogGCReclaimedBytes < dead/2 {
		t.Fatalf("GC reclaimed %d of %d dead bytes, want >= %d",
			after.VlogGCReclaimedBytes, dead, dead/2)
	}
	if after.VlogFiles >= before.VlogFiles {
		t.Fatalf("GC deleted no files: %d -> %d", before.VlogFiles, after.VlogFiles)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		want := bigVal(fmt.Sprintf("g2-%03d-", i), valLen)
		if v, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(v, want) {
			t.Fatalf("after GC: get(%s) = %d bytes, ok=%v", k, len(v), ok)
		}
	}
}

// An injected lsm.vlog.gc.error aborts a GC round mid-rewrite; every acked
// write must stay readable through the abort, and GC must complete once the
// fault is lifted.
func TestVlogGCSurvivesInjectedError(t *testing.T) {
	reg := faultinject.New(1, nil)
	e := newManualEngine(Options{
		ValueThreshold: 16,
		VlogFileSize:   1 << 10,
		Faults:         reg,
	})
	defer e.Close()

	const keys, valLen = 32, 100
	write := func(gen string) {
		for i := 0; i < keys; i++ {
			if err := e.Set([]byte(fmt.Sprintf("k%03d", i)), bigVal(fmt.Sprintf("%s-%03d-", gen, i), valLen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write("g1")
	write("g2")

	reg.Enable("lsm.vlog.gc.error", faultinject.Site{Probability: 1})
	e.Compact() // GC rounds abort mid-rewrite

	m := e.Metrics()
	if m.VlogGCRounds == 0 {
		t.Fatal("no GC round started under the injected fault")
	}
	if m.VlogGCReclaimedBytes != 0 {
		t.Fatalf("aborted GC reclaimed %d bytes", m.VlogGCReclaimedBytes)
	}
	checkAll := func(stage string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%03d", i)
			want := bigVal(fmt.Sprintf("g2-%03d-", i), valLen)
			if v, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: get(%s) = %d bytes, ok=%v", stage, k, len(v), ok)
			}
		}
	}
	checkAll("mid-abort")

	reg.Disable("lsm.vlog.gc.error")
	e.VlogGC()
	if got := e.Metrics().VlogGCReclaimedBytes; got < keys*valLen/2 {
		t.Fatalf("post-fault GC reclaimed %d bytes, want >= %d", got, keys*valLen/2)
	}
	checkAll("post-GC")
}

// An injected lsm.vlog.write.error degrades the append to inline storage:
// the write still succeeds and the value still reads back.
func TestVlogWriteErrorFallsBackInline(t *testing.T) {
	reg := faultinject.New(1, nil)
	reg.Enable("lsm.vlog.write.error", faultinject.Site{Probability: 1})
	e := newManualEngine(Options{ValueThreshold: 16, Faults: reg})
	defer e.Close()

	big := bigVal("fallback-", 64)
	if err := e.Set([]byte("k"), big); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.VlogWriteFallbacks != 1 || m.VlogWrites != 0 {
		t.Fatalf("fallbacks=%d writes=%d, want 1 and 0", m.VlogWriteFallbacks, m.VlogWrites)
	}
	if v, ok := get(t, e, []byte("k")); !ok || !bytes.Equal(v, big) {
		t.Fatalf("read after fallback = %d bytes, ok=%v", len(v), ok)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if v, ok := get(t, e, []byte("k")); !ok || !bytes.Equal(v, big) {
		t.Fatalf("read after compaction = %d bytes, ok=%v", len(v), ok)
	}
}

// An iterator over a narrow range must position in only the one table of a
// sorted level whose bounds intersect it.
func TestIterProbesOnlyOverlappingTables(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	// Five disjoint key ranges, each compacted into its own bottom-level table.
	for r := 0; r < 5; r++ {
		for i := 0; i < 10; i++ {
			if err := e.Set([]byte(fmt.Sprintf("r%d-%02d", r, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.Compact()
	}
	e.mu.RLock()
	bottom := len(e.mu.levels[numLevels-1])
	e.mu.RUnlock()
	if bottom < 3 {
		t.Fatalf("level shape did not spread the bottom level: %d tables", bottom)
	}
	before := e.Metrics().TablesProbed
	n := 0
	for it := e.NewIter([]byte("r2-"), []byte("r2-99")); it.Valid(); it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("scan returned %d keys, want 10", n)
	}
	if probed := e.Metrics().TablesProbed - before; probed != 1 {
		t.Fatalf("single-table range scan probed %d tables, want 1", probed)
	}
}

// Randomized-interleave property test of an engine with aggressive value
// separation against a shadow map, with forced flushes, compactions, and
// value-log GC rounds mixed into the op stream. Values straddle the
// separation threshold so both storage paths are exercised.
func TestRandomizedOpsWithSeparation(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		opts := separatedOptions()
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

// Concurrent readers and writers against an engine with aggressive value
// separation while a dedicated goroutine forces value-log GC rounds; under
// -race this is the lock-discipline test for the value log and GC's liveness
// probes, and the final state must match what the writers wrote.
func TestConcurrentReadersWritersWithVlogGC(t *testing.T) {
	opts := separatedOptions()
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
				if v, ok := get(t, e, []byte(fmt.Sprintf("w%d-%04d", w, i))); ok && len(v) == 0 {
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
			if v, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s = %d bytes %v, want %d bytes", k, len(v), ok, len(want))
			}
		}
	}
}
