package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"crdbserverless/internal/randutil"
)

// newManualEngine returns an engine that compacts only when told to, so a
// test can build a specific level shape.
func newManualEngine(opts Options) *Engine {
	e := New(opts)
	e.noAutoCompact = true
	return e
}

// newEngineWithL0 returns an engine whose L0 compacts at l0Files files
// instead of l0CompactionThreshold, so a few writes cross compactions.
func newEngineWithL0(opts Options, l0Files int) *Engine {
	e := New(opts)
	e.l0Threshold = l0Files
	return e
}

func TestEngineSetGet(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if err := e.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := e.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := e.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestEngineOverwrite(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v1"))
	e.Set([]byte("k"), []byte("v2"))
	v, ok, _ := e.Get([]byte("k"))
	if !ok || string(v) != "v2" {
		t.Fatalf("Get = %q %v", v, ok)
	}
}

func TestEngineDelete(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v"))
	e.Delete([]byte("k"))
	if _, ok, _ := e.Get([]byte("k")); ok {
		t.Fatal("deleted key still visible")
	}
	// Deleting a missing key is fine.
	if err := e.Delete([]byte("nope")); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeleteAcrossFlush(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v"))
	e.Flush()
	e.Delete([]byte("k"))
	if _, ok, _ := e.Get([]byte("k")); ok {
		t.Fatal("tombstone in memtable should shadow flushed value")
	}
	e.Flush()
	if _, ok, _ := e.Get([]byte("k")); ok {
		t.Fatal("tombstone in L0 should shadow older L0 value")
	}
	e.Compact()
	if _, ok, _ := e.Get([]byte("k")); ok {
		t.Fatal("key resurrected after compaction")
	}
}

func TestEngineGetReadsThroughLevels(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("old"), []byte("bottom"))
	e.Flush()
	e.Compact() // push to deeper level
	e.Set([]byte("newer"), []byte("l0"))
	e.Flush()
	e.Set([]byte("newest"), []byte("mem"))
	for _, tc := range []struct{ k, v string }{
		{"old", "bottom"}, {"newer", "l0"}, {"newest", "mem"},
	} {
		v, ok, _ := e.Get([]byte(tc.k))
		if !ok || string(v) != tc.v {
			t.Fatalf("Get(%s) = %q %v", tc.k, v, ok)
		}
	}
}

func TestEngineNewerLevelsShadowOlder(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v1"))
	e.Flush()
	e.Set([]byte("k"), []byte("v2"))
	e.Flush()
	v, ok, _ := e.Get([]byte("k"))
	if !ok || string(v) != "v2" {
		t.Fatalf("newest L0 run must win: got %q", v)
	}
	e.Set([]byte("k"), []byte("v3"))
	v, _, _ = e.Get([]byte("k"))
	if string(v) != "v3" {
		t.Fatalf("memtable must win: got %q", v)
	}
}

func TestFlushMovesDataToL0(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	for i := 0; i < 10; i++ {
		e.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	m := e.Metrics()
	if m.L0Files != 0 || m.MemTableBytes == 0 {
		t.Fatalf("before flush: %+v", m)
	}
	e.Flush()
	m = e.Metrics()
	if m.L0Files != 1 || m.MemTableBytes != 0 || m.FlushedBytes == 0 || m.FlushCount != 1 {
		t.Fatalf("after flush: %+v", m)
	}
	// Flushing an empty memtable is a no-op.
	e.Flush()
	if got := e.Metrics().FlushCount; got != 1 {
		t.Fatalf("empty flush counted: %d", got)
	}
}

func TestAutoFlushAtThreshold(t *testing.T) {
	e := newManualEngine(Options{MemTableSize: 1024})
	defer e.Close()
	big := bytes.Repeat([]byte("x"), 512)
	e.Set([]byte("a"), big)
	e.Set([]byte("b"), big) // crosses threshold -> flush
	if m := e.Metrics(); m.FlushCount == 0 {
		t.Fatalf("no auto flush: %+v", m)
	}
}

func TestL0CompactionTriggersAtThreshold(t *testing.T) {
	e := newEngineWithL0(Options{}, 3)
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		e.Flush()
	}
	m := e.Metrics()
	if m.L0Files >= 3 {
		t.Fatalf("L0 not compacted: %d files", m.L0Files)
	}
	if m.CompactionCount == 0 || m.CompactedBytes == 0 {
		t.Fatalf("compaction not recorded: %+v", m)
	}
	// Data survives compaction.
	for i := 0; i < 3; i++ {
		if _, ok, _ := e.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost in compaction", i)
		}
	}
}

func TestCompactionDropsTombstonesAtBottom(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v"))
	e.Flush()
	e.Delete([]byte("k"))
	e.Flush()
	e.Compact()
	// After full compaction the tombstone should be gone entirely.
	it := e.NewIter(nil, nil)
	if it.Valid() {
		t.Fatalf("expected empty engine, found %q", it.Key())
	}
	m := e.Metrics()
	var total int64
	for _, b := range m.LevelBytes {
		total += b
	}
	if total != 0 {
		t.Fatalf("tombstones not dropped: %d bytes remain", total)
	}
}

func TestIteratorOrderedScan(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	keys := []string{"d", "a", "c", "b", "e"}
	for _, k := range keys {
		e.Set([]byte(k), []byte("v-"+k))
	}
	var got []string
	for it := e.NewIter(nil, nil); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
		if want := "v-" + string(it.Key()); string(it.Value()) != want {
			t.Fatalf("value mismatch at %q: %q", it.Key(), it.Value())
		}
	}
	want := []string{"a", "b", "c", "d", "e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order %v, want %v", got, want)
	}
}

func TestIteratorBounds(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	for _, k := range []string{"a", "b", "c", "d"} {
		e.Set([]byte(k), []byte("v"))
	}
	var got []string
	for it := e.NewIter([]byte("b"), []byte("d")); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"b", "c"}) {
		t.Fatalf("bounded scan = %v", got)
	}
}

func TestIteratorMergesAcrossRunsWithShadowing(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	e.Set([]byte("a"), []byte("old"))
	e.Set([]byte("b"), []byte("keep"))
	e.Flush()
	e.Set([]byte("a"), []byte("new"))
	e.Delete([]byte("b"))
	e.Flush()
	e.Set([]byte("c"), []byte("mem"))

	var got []string
	for it := e.NewIter(nil, nil); it.Valid(); it.Next() {
		got = append(got, string(it.Key())+"="+string(it.Value()))
	}
	want := []string{"a=new", "c=mem"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged scan = %v, want %v", got, want)
	}
}

func TestEngineClosed(t *testing.T) {
	e := New(Options{})
	e.Close()
	if err := e.Set([]byte("a"), []byte("b")); err != ErrClosed {
		t.Fatalf("Set after close = %v", err)
	}
	if _, _, err := e.Get([]byte("a")); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	if err := e.Flush(); err != ErrClosed {
		t.Fatalf("Flush after close = %v", err)
	}
}

func TestEngineVsMapProperty(t *testing.T) {
	// Property: after an arbitrary mix of sets/deletes/flushes, the engine
	// agrees with a reference map, both for point reads and full scans.
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
		Flush  bool
	}
	f := func(ops []op) bool {
		e := New(Options{MemTableSize: 1 << 30})
		defer e.Close()
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%03d", o.Key)
			if o.Flush {
				e.Flush()
			}
			if o.Delete {
				e.Delete([]byte(k))
				delete(ref, k)
			} else {
				v := fmt.Sprintf("val-%05d", o.Val)
				e.Set([]byte(k), []byte(v))
				ref[k] = v
			}
		}
		// Point reads.
		for k, v := range ref {
			got, ok, err := e.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		// Full scan matches sorted reference.
		var refKeys []string
		for k := range ref {
			refKeys = append(refKeys, k)
		}
		sort.Strings(refKeys)
		i := 0
		for it := e.NewIter(nil, nil); it.Valid(); it.Next() {
			if i >= len(refKeys) || string(it.Key()) != refKeys[i] || string(it.Value()) != ref[refKeys[i]] {
				return false
			}
			i++
		}
		return i == len(refKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineVsMapWithCompactions(t *testing.T) {
	e := newEngineWithL0(Options{MemTableSize: 2048}, 2)
	e.lBaseMax = 8192
	defer e.Close()
	rng := randutil.NewRand(99)
	ref := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(500))
		if rng.Intn(4) == 0 {
			e.Delete([]byte(k))
			delete(ref, k)
		} else {
			v := fmt.Sprintf("val-%08d", i)
			e.Set([]byte(k), []byte(v))
			ref[k] = v
		}
	}
	for k, v := range ref {
		got, ok, _ := e.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q %v, want %q", k, got, ok, v)
		}
	}
	n := 0
	for it := e.NewIter(nil, nil); it.Valid(); it.Next() {
		if want, ok := ref[string(it.Key())]; !ok || want != string(it.Value()) {
			t.Fatalf("scan surfaced %q=%q, want %q (ok=%v)", it.Key(), it.Value(), want, ok)
		}
		n++
	}
	if n != len(ref) {
		t.Fatalf("scan found %d keys, want %d", n, len(ref))
	}
}

func TestEngineConcurrentReadsAndWrites(t *testing.T) {
	e := New(Options{MemTableSize: 4096})
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("g%d-k%d", g, rng.Intn(100)))
				switch rng.Intn(3) {
				case 0:
					e.Set(k, []byte("v"))
				case 1:
					e.Get(k)
				case 2:
					it := e.NewIter(k, nil)
					for j := 0; j < 5 && it.Valid(); j++ {
						it.Next()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMetricsReadAmplification(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	if ra := e.Metrics().ReadAmplification; ra != 1 {
		t.Fatalf("empty engine read amp = %d, want 1 (memtable)", ra)
	}
	e.Set([]byte("a"), []byte("v"))
	e.Flush()
	e.Set([]byte("b"), []byte("v"))
	e.Flush()
	if ra := e.Metrics().ReadAmplification; ra != 3 {
		t.Fatalf("read amp = %d, want 3 (memtable + 2 L0)", ra)
	}
}

func TestApplyBatchAtomicVisibility(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	batch := []Entry{
		{Key: []byte("x"), Value: []byte("1")},
		{Key: []byte("y"), Value: []byte("2")},
		{Key: []byte("z"), Tombstone: true},
	}
	if err := e.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get([]byte("x")); !ok || string(v) != "1" {
		t.Fatal("batch write x missing")
	}
	if v, ok, _ := e.Get([]byte("y")); !ok || string(v) != "2" {
		t.Fatal("batch write y missing")
	}
}

func TestEngineValueIsolation(t *testing.T) {
	// Mutating buffers passed in or returned must not corrupt the engine.
	e := New(Options{})
	defer e.Close()
	k := []byte("k")
	v := []byte("hello")
	e.Set(k, v)
	v[0] = 'X'
	got, _, _ := e.Get(k)
	if string(got) != "hello" {
		t.Fatalf("caller mutation leaked into engine: %q", got)
	}
	got[0] = 'Y'
	got2, _, _ := e.Get(k)
	if string(got2) != "hello" {
		t.Fatalf("returned buffer aliases engine state: %q", got2)
	}
}

func TestMergeRunsPrecedence(t *testing.T) {
	newer := []Entry{{Key: []byte("a"), Value: []byte("new")}}
	older := []Entry{{Key: []byte("a"), Value: []byte("old")}, {Key: []byte("b"), Value: []byte("b")}}
	out := mergeRuns([][]Entry{newer, older}, false, nil)
	if len(out) != 2 || string(out[0].Value) != "new" {
		t.Fatalf("merge precedence: %+v", out)
	}
}

func TestMergeRunsTombstoneHandling(t *testing.T) {
	newer := []Entry{{Key: []byte("a"), Tombstone: true}}
	older := []Entry{{Key: []byte("a"), Value: []byte("old")}}
	kept := mergeRuns([][]Entry{newer, older}, false, nil)
	if len(kept) != 1 || !kept[0].Tombstone {
		t.Fatalf("tombstone should be kept when not bottommost: %+v", kept)
	}
	dropped := mergeRuns([][]Entry{newer, older}, true, nil)
	if len(dropped) != 0 {
		t.Fatalf("tombstone should be dropped at bottom: %+v", dropped)
	}
}
