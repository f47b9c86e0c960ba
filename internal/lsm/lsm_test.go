package lsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"crdbserverless/internal/randutil"
)

// Set writes key=value, one entry in its own batch.
func (e *Engine) Set(key, value []byte) error {
	return e.ApplyBatch([]Entry{{Key: key, Value: value}})
}

// Delete writes a tombstone for key, one entry in its own batch.
func (e *Engine) Delete(key []byte) error {
	return e.ApplyBatch([]Entry{{Key: key, Tombstone: true}})
}

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

// get is a point read through the engine's one read path: an iterator
// seeked to key, which must land on exactly key. The value is copied out, so
// the caller may keep or modify it.
func get(t testing.TB, e *Engine, key []byte) ([]byte, bool) {
	t.Helper()
	it := e.NewIter(nil, nil)
	it.SeekGE(key)
	if !it.Valid() || !bytes.Equal(it.Key(), key) {
		return nil, false
	}
	return append([]byte(nil), it.Value()...), true
}

// bigVal returns a value of n bytes whose content encodes tag, so a value
// read back from the wrong key is caught by content checks, not just lengths.
func bigVal(tag string, n int) []byte {
	b := make([]byte, 0, n)
	for len(b) < n {
		b = append(b, tag...)
	}
	return b[:n]
}

func TestEngineSetGet(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if err := e.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, e, []byte("a")); !ok || string(v) != "1" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if _, ok := get(t, e, []byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestEngineOverwrite(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v1"))
	e.Set([]byte("k"), []byte("v2"))
	v, ok := get(t, e, []byte("k"))
	if !ok || string(v) != "v2" {
		t.Fatalf("get = %q %v", v, ok)
	}
}

func TestEngineDelete(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	e.Set([]byte("k"), []byte("v"))
	e.Delete([]byte("k"))
	if _, ok := get(t, e, []byte("k")); ok {
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
	if _, ok := get(t, e, []byte("k")); ok {
		t.Fatal("tombstone in memtable should shadow flushed value")
	}
	e.Flush()
	if _, ok := get(t, e, []byte("k")); ok {
		t.Fatal("tombstone in L0 should shadow older L0 value")
	}
	e.Compact()
	if _, ok := get(t, e, []byte("k")); ok {
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
		v, ok := get(t, e, []byte(tc.k))
		if !ok || string(v) != tc.v {
			t.Fatalf("get(%s) = %q %v", tc.k, v, ok)
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
	v, ok := get(t, e, []byte("k"))
	if !ok || string(v) != "v2" {
		t.Fatalf("newest L0 run must win: got %q", v)
	}
	e.Set([]byte("k"), []byte("v3"))
	v, _ = get(t, e, []byte("k"))
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
		if _, ok := get(t, e, []byte(fmt.Sprintf("k%d", i))); !ok {
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
			got, ok := get(t, e, []byte(k))
			if !ok || string(got) != v {
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
		got, ok := get(t, e, []byte(k))
		if !ok || string(got) != v {
			t.Fatalf("get(%s) = %q %v, want %q", k, got, ok, v)
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
					get(t, e, k)
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
			if _, ok := get(t, e, key); !ok {
				t.Fatalf("key %q lost", key)
			}
		}
	}
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
	if v, ok := get(t, e, []byte("x")); !ok || string(v) != "1" {
		t.Fatal("batch write x missing")
	}
	if v, ok := get(t, e, []byte("y")); !ok || string(v) != "2" {
		t.Fatal("batch write y missing")
	}
}

func TestEngineValueIsolation(t *testing.T) {
	// Mutating the key or value buffer a write was given must not corrupt the
	// engine.
	e := New(Options{})
	defer e.Close()
	k := []byte("k")
	v := []byte("hello")
	e.Set(k, v)
	k[0], v[0] = 'j', 'X'
	if got, ok := get(t, e, []byte("k")); !ok || string(got) != "hello" {
		t.Fatalf("caller mutation leaked into engine: %q %v", got, ok)
	}
}

// mergeTables merges runs given newest first, each in a table of its own.
func mergeTables(dropTombstones bool, runs ...[]Entry) []Entry {
	srcs := make([]iterSource, len(runs))
	for i, r := range runs {
		srcs[i].tables = []*ssTable{newSSTable(uint64(len(runs)-i), r)}
	}
	return mergeSources(srcs, dropTombstones)
}

func TestMergeRunsPrecedence(t *testing.T) {
	newer := []Entry{{Key: []byte("a"), Value: []byte("new")}}
	older := []Entry{{Key: []byte("a"), Value: []byte("old")}, {Key: []byte("b"), Value: []byte("b")}}
	out := mergeTables(false, newer, older)
	if len(out) != 2 || string(out[0].Value) != "new" || string(out[1].Key) != "b" {
		t.Fatalf("merge precedence: %+v", out)
	}
}

func TestMergeRunsTombstoneHandling(t *testing.T) {
	newer := []Entry{{Key: []byte("a"), Tombstone: true}}
	older := []Entry{{Key: []byte("a"), Value: []byte("old")}}
	kept := mergeTables(false, newer, older)
	if len(kept) != 1 || !kept[0].Tombstone {
		t.Fatalf("tombstone should be kept when not bottommost: %+v", kept)
	}
	dropped := mergeTables(true, newer, older)
	if len(dropped) != 0 {
		t.Fatalf("tombstone should be dropped at bottom: %+v", dropped)
	}
}

// A memtable source yields each key's newest version whatever snapshots
// retained the older ones, and an empty value is a value, not a tombstone.
func TestMergeMemTableSource(t *testing.T) {
	m := newMemTable(randutil.NewRand(1))
	for seq, e := range []Entry{
		{Key: []byte("a"), Value: []byte("a1")},
		{Key: []byte("b"), Value: []byte("b1")},
		{Key: []byte("a"), Value: []byte("a2")},
		{Key: []byte("b"), Tombstone: true},
		{Key: []byte("c"), Value: []byte("c1")},
		{Key: []byte("a"), Value: []byte("a3")},
		{Key: []byte("c"), Value: []byte{}},
	} {
		// Every version is retained, as if a snapshot held each one.
		m.set(e, uint64(seq+1), math.MaxUint64)
	}
	older := newSSTable(1, []Entry{{Key: []byte("b"), Value: []byte("b0")}, {Key: []byte("d"), Value: []byte("d0")}})
	srcs := func() []iterSource { return []iterSource{{mem: m}, {tables: []*ssTable{older}}} }
	for _, tc := range []struct {
		drop bool
		want string
	}{
		{false, "a=a3 b=<del> c= d=d0"},
		{true, "a=a3 c= d=d0"},
	} {
		out := mergeSources(srcs(), tc.drop)
		if got := formatEntries(out); got != tc.want {
			t.Fatalf("drop tombstones %v: merged %s, want %s", tc.drop, got, tc.want)
		}
		for _, e := range out {
			if string(e.Key) == "c" && (e.Value == nil || e.Tombstone) {
				t.Fatalf("empty value of c merged as %+v, want a live empty value", e)
			}
		}
	}
	// The flush's shape: the memtable alone, tombstones kept, into a table.
	tbl := newSSTable(2, mergeSources([]iterSource{{mem: m}}, false))
	if got := formatEntries(mergeSources([]iterSource{{tables: []*ssTable{tbl}}}, false)); got != "a=a3 b=<del> c=" {
		t.Fatalf("flushed table holds %s", got)
	}
}

func formatEntries(ents []Entry) string {
	var b strings.Builder
	for i, e := range ents {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.Tombstone {
			fmt.Fprintf(&b, "%s=<del>", e.Key)
		} else {
			fmt.Fprintf(&b, "%s=%s", e.Key, e.Value)
		}
	}
	return b.String()
}

// TestMergeVsModel merges seeded random shapes — a memtable holding several
// versions of some keys, overlapping L0 tables and a sorted level of disjoint
// tables — and checks the output against each key's newest entry, with
// tombstones dropped or kept.
func TestMergeVsModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() string { return fmt.Sprintf("k%03d", rng.Intn(120)) }
		entry := func(k string, tag int) Entry {
			if rng.Intn(4) == 0 {
				return Entry{Key: []byte(k), Tombstone: true}
			}
			return Entry{Key: []byte(k), Value: []byte(fmt.Sprintf("v%d-%d", tag, rng.Intn(3)))[:rng.Intn(6)]}
		}
		// sortedRun draws up to n distinct keys into a run in key order.
		sortedRun := func(n, tag int) []Entry {
			seen := map[string]bool{}
			var ks []string
			for i := 0; i < n; i++ {
				if k := key(); !seen[k] {
					seen[k] = true
					ks = append(ks, k)
				}
			}
			sort.Strings(ks)
			run := make([]Entry, len(ks))
			for i, k := range ks {
				run[i] = entry(k, tag)
			}
			return run
		}
		newest := map[string]Entry{} // filled newest run first: the first entry wins
		note := func(run []Entry) {
			for _, e := range run {
				if _, ok := newest[string(e.Key)]; !ok {
					newest[string(e.Key)] = e
				}
			}
		}

		var srcs []iterSource
		if rng.Intn(4) != 0 {
			m := newMemTable(randutil.NewRand(seed))
			latest := map[string]Entry{}
			for seq, n := uint64(1), uint64(rng.Intn(80)); seq <= n; seq++ {
				e := entry(key(), 0)
				m.set(e, seq, uint64(rng.Intn(int(seq)+1)))
				latest[string(e.Key)] = e
			}
			var run []Entry
			for _, e := range latest {
				run = append(run, e)
			}
			sort.Slice(run, func(i, j int) bool { return bytes.Compare(run[i].Key, run[j].Key) < 0 })
			note(run)
			if !m.empty() {
				srcs = append(srcs, iterSource{mem: m})
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			if run := sortedRun(1+rng.Intn(60), len(srcs)+1); len(run) > 0 {
				note(run)
				srcs = append(srcs, iterSource{tables: []*ssTable{newSSTable(uint64(len(srcs)+1), run)}})
			}
		}
		if level := sortedRun(rng.Intn(150), 9); len(level) > 0 {
			note(level)
			var tables []*ssTable
			for len(level) > 0 {
				n := 1 + rng.Intn(len(level))
				tables = append(tables, newSSTable(uint64(100+len(tables)), level[:n]))
				level = level[n:]
			}
			srcs = append(srcs, iterSource{tables: tables})
		}

		for _, drop := range []bool{false, true} {
			var want []Entry
			for _, e := range newest {
				if !drop || !e.Tombstone {
					want = append(want, e)
				}
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })
			in := append([]iterSource(nil), srcs...) // a merge consumes its sources
			got := mergeSources(in, drop)
			if g, w := formatEntries(got), formatEntries(want); g != w {
				t.Fatalf("seed %d, drop tombstones %v, %d sources:\nmerged %s\nwant   %s", seed, drop, len(srcs), g, w)
			}
		}
	}
}

// A table's blocks are allocated exactly: no block keeps the capacity an
// append would have grown it to, whatever the entry sizes.
func TestSSTableBlocksExactlySized(t *testing.T) {
	for _, valLen := range []int{0, 80, 180, 300, 3000} {
		var entries []Entry
		for i := 0; i < 500; i++ {
			entries = append(entries, Entry{
				Key:       []byte(fmt.Sprintf("key-%06d", i)),
				Value:     bytes.Repeat([]byte{'v'}, valLen+i%7),
				Tombstone: i%11 == 0,
			})
		}
		tbl := newSSTable(1, entries)
		var lens, caps, sizeB int64
		n := 0
		for bi, b := range tbl.blocks {
			lens += int64(len(b))
			caps += int64(cap(b))
			var key []byte
			for off := 0; off < len(b); n++ {
				shared, suffix, value, tombstone, next := entryAt(b, off)
				if off == 0 && shared != 0 {
					t.Fatalf("value %d: block %d's first entry shares %d key bytes", valLen, bi, shared)
				}
				key = append(key[:shared], suffix...)
				e := Entry{Key: key, Value: value, Tombstone: tombstone}
				off = next
				if !bytes.Equal(e.Key, entries[n].Key) || !bytes.Equal(e.Value, entries[n].Value) || e.Tombstone != entries[n].Tombstone {
					t.Fatalf("value %d: block %d entry %d = %q, want %q", valLen, bi, n, e.Key, entries[n].Key)
				}
				sizeB += e.size()
				// A block ends with the entry that brings it to the target.
				if off < len(b) && off >= blockTargetBytes {
					t.Fatalf("value %d: block %d goes on past %d bytes", valLen, bi, off)
				}
			}
		}
		if n != len(entries) || caps != lens {
			t.Fatalf("value %d: %d entries in blocks of %d bytes and %d capacity, want %d entries and capacity = length",
				valLen, n, lens, caps, len(entries))
		}
		if sizeB != tbl.sizeB {
			t.Fatalf("value %d: sizeB = %d, want %d", valLen, tbl.sizeB, sizeB)
		}
	}
}
