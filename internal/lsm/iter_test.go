package lsm

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"crdbserverless/internal/randutil"
)

// newIterTestEngine keeps memtables and levels small, so a few hundred writes
// cross flushes and compactions.
func newIterTestEngine() *Engine {
	e := newEngineWithL0(Options{MemTableSize: 2 << 10}, 3)
	e.lBaseMax = 8 << 10
	return e
}

// modelRange returns the model's keys in [lo, hi), sorted.
func modelRange(model map[string]string, lo, hi []byte) []string {
	var keys []string
	for k := range model {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestIteratorVsModel drives the engine and a sorted-map model with the same
// seeded stream of sets, deletes, multi-key batches, flushes and compactions,
// and between them walks random iterators with NewIter,
// SeekGE (both directions) and Next, checking every position against the
// model.
func TestIteratorVsModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := randutil.NewRand(seed)
			e := newIterTestEngine()
			defer e.Close()
			model := map[string]string{}
			key := func() []byte { return []byte(fmt.Sprintf("k%03d", rng.Intn(150))) }
			val := func() []byte {
				v := make([]byte, 1+rng.Intn(160))
				for i := range v {
					v[i] = byte('a' + rng.Intn(26))
				}
				return v
			}
			apply := func(ents []Entry) {
				if err := e.ApplyBatch(ents); err != nil {
					t.Fatal(err)
				}
				for _, ent := range ents {
					if ent.Tombstone {
						delete(model, string(ent.Key))
					} else {
						model[string(ent.Key)] = string(ent.Value)
					}
				}
			}
			walk := func() {
				var lo, hi []byte
				if rng.Intn(4) > 0 {
					lo = key()
				}
				if rng.Intn(4) > 0 {
					hi = key()
				}
				want := modelRange(model, lo, hi)
				it := e.NewIter(lo, hi)
				pos := 0 // index into want the iterator should be on
				check := func(what string) {
					t.Helper()
					if pos >= len(want) {
						if it.Valid() {
							t.Fatalf("%s over [%q,%q): at %q, want exhausted", what, lo, hi, it.Key())
						}
						return
					}
					if !it.Valid() {
						t.Fatalf("%s over [%q,%q): exhausted, want %q", what, lo, hi, want[pos])
					}
					if string(it.Key()) != want[pos] || string(it.Value()) != model[want[pos]] {
						t.Fatalf("%s over [%q,%q): at %q=%q, want %q=%q",
							what, lo, hi, it.Key(), it.Value(), want[pos], model[want[pos]])
					}
				}
				check("NewIter")
				for step := 0; step < 12; step++ {
					if rng.Intn(3) == 0 {
						target := key()
						it.SeekGE(target)
						seekFrom := string(target)
						if lo != nil && seekFrom < string(lo) {
							seekFrom = string(lo)
						}
						pos = sort.SearchStrings(want, seekFrom)
						check(fmt.Sprintf("SeekGE(%q)", target))
					} else if it.Valid() {
						it.Next()
						pos++
						check("Next")
					}
				}
			}
			for op := 0; op < 1500; op++ {
				switch r := rng.Intn(100); {
				case r < 55:
					apply([]Entry{{Key: key(), Value: val()}})
				case r < 70:
					apply([]Entry{{Key: key(), Tombstone: true}})
				case r < 80:
					// A multi-key batch; now and then it names one key twice.
					var ents []Entry
					for i, n := 0, 2+rng.Intn(4); i < n; i++ {
						ent := Entry{Key: key(), Value: val(), Tombstone: rng.Intn(4) == 0}
						if i > 0 && rng.Intn(5) == 0 {
							ent.Key = ents[i-1].Key
						}
						if ent.Tombstone {
							ent.Value = nil
						}
						ents = append(ents, ent)
					}
					apply(ents)
				case r < 84:
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
				case r < 86:
					e.Compact()
				default:
					walk()
				}
			}
			walk()
			m := e.Metrics()
			if m.FlushCount == 0 || m.CompactionCount == 0 {
				t.Fatalf("run did not exercise flush/compaction: %+v", m)
			}
		})
	}
}

// TestIteratorSnapshot: an iterator yields exactly the state it was created
// over, however the engine is rewritten around it afterwards: every key
// overwritten, every other one deleted, new keys inserted on both sides of
// each, then a flush and a full compaction that retires the tables it reads.
func TestIteratorSnapshot(t *testing.T) {
	e := newIterTestEngine()
	defer e.Close()
	want := map[string]string{}
	put := func(i int, gen string) {
		k := fmt.Sprintf("k%03d-m", i)
		v := fmt.Sprintf("%s-%03d-%s", gen, i, bytes.Repeat([]byte{'x'}, (i%3)*60))
		if err := e.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// The earlier state sits at every depth: compacted, in L0, in the
	// memtable, some keys with a version at each.
	for i := 0; i < 90; i++ {
		put(i, "deep")
	}
	e.Compact()
	for i := 0; i < 90; i += 2 {
		put(i, "l0")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i += 3 {
		put(i, "mem")
	}
	if err := e.Delete([]byte("k007-m")); err != nil {
		t.Fatal(err)
	}
	delete(want, "k007-m")

	it := e.NewIter(nil, nil)
	mid := e.NewIter([]byte("k030"), []byte("k060"))

	for i := 0; i < 90; i++ {
		k := fmt.Sprintf("k%03d-m", i)
		ents := []Entry{
			{Key: []byte(fmt.Sprintf("k%03d-a", i)), Value: bytes.Repeat([]byte{'n'}, 100)},
			{Key: []byte(fmt.Sprintf("k%03d-z", i)), Value: []byte("new")},
		}
		if i%2 == 0 {
			ents = append(ents, Entry{Key: []byte(k), Tombstone: true})
		} else {
			ents = append(ents, Entry{Key: []byte(k), Value: bytes.Repeat([]byte{'o'}, 80)})
		}
		if err := e.ApplyBatch(ents); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Compact()

	verify := func(it *Iterator, lo, hi []byte) {
		t.Helper()
		for _, k := range modelRange(want, lo, hi) {
			if !it.Valid() {
				t.Fatalf("iterator exhausted before %q", k)
			}
			if string(it.Key()) != k || string(it.Value()) != want[k] {
				t.Fatalf("at %q=%q, want %q=%q", it.Key(), it.Value(), k, want[k])
			}
			it.Next()
		}
		if it.Valid() {
			t.Fatalf("iterator continues with %q past the snapshot's last key", it.Key())
		}
	}
	verify(it, nil, nil)
	mid.SeekGE([]byte("k045"))
	verify(mid, []byte("k045"), []byte("k060"))
	// And backwards, over the same snapshot.
	it.SeekGE([]byte("k010"))
	verify(it, []byte("k010"), nil)
}

// TestIteratorNoTornBatch: a batch is visible to an iterator whole or not at
// all, with no lock held while it walks. One writer applies two-key batches
// whose halves always agree; three readers scan beside it, across the flushes
// and compactions the writes trigger.
func TestIteratorNoTornBatch(t *testing.T) {
	const pairs, batches = 40, 4000
	e := newEngineWithL0(Options{MemTableSize: 4 << 10}, 3)
	defer e.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for n := 0; n < batches; n++ {
			i := n % pairs
			a, b := []byte(fmt.Sprintf("a%03d", i)), []byte(fmt.Sprintf("b%03d", i))
			ents := []Entry{{Key: a, Tombstone: true}, {Key: b, Tombstone: true}}
			if n%7 != 0 {
				v := []byte(fmt.Sprintf("%06d-%s", n, bytes.Repeat([]byte{'p'}, (n%2)*70)))
				ents = []Entry{{Key: a, Value: v}, {Key: b, Value: v}}
			}
			if err := e.ApplyBatch(ents); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running := true; running; {
				select {
				case <-done:
					running = false // one more scan, over the final state
				default:
				}
				seen := map[string]string{}
				it := e.NewIter(nil, nil)
				for ; it.Valid(); it.Next() {
					seen[string(it.Key())] = string(it.Value())
				}
				for i := 0; i < pairs; i++ {
					a, aok := seen[fmt.Sprintf("a%03d", i)]
					b, bok := seen[fmt.Sprintf("b%03d", i)]
					if aok != bok || a != b {
						t.Errorf("torn batch on pair %d: a=%q (%v) b=%q (%v)", i, a, aok, b, bok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemTableOverwrite: an overwrite of a version some snapshot may hold
// keeps it for that snapshot, and must then grow sizeB — a key rewritten by
// every command would otherwise hold a chain no flush threshold ever sees. An
// overwrite of a version above every snapshot (a second write in one batch, a
// memtable nobody reads) replaces in place and is size-neutral.
func TestMemTableOverwrite(t *testing.T) {
	m := newMemTable(randutil.NewRand(1))
	k := []byte("k")
	m.set(Entry{Key: k, Value: []byte("12345678")}, 1, 0)
	base := m.sizeB
	// No iterator has a snapshot yet (snapSeq 0): replaced, not retained.
	m.set(Entry{Key: k, Value: []byte("abcdefgh")}, 2, 0)
	n := m.nodes.at(m.seek(k, nil))
	if v := m.version(n, n.newest.Load()); string(m.value(v)) != "abcdefgh" || m.sizeB != base {
		t.Fatalf("unobserved overwrite: latest=%q sizeB %d -> %d", m.value(v), base, m.sizeB)
	}
	if n.newest.Load() != 0 {
		t.Fatal("unobserved overwrite pushed a version")
	}
	if m.visible(n, 0) != nil {
		t.Fatal("the key is visible to a snapshot that predates it")
	}
	// An iterator captured sequence number 2: batch 3 must keep what it sees.
	m.set(Entry{Key: k, Value: []byte("ABCDEFGH")}, 3, 2)
	if m.sizeB <= base {
		t.Fatalf("overwrite of an observed version left sizeB at %d", m.sizeB)
	}
	grown := m.sizeB
	// The same key again in batch 3: in place, whatever the snapshots below.
	m.set(Entry{Key: k, Tombstone: true}, 3, 2)
	v2 := m.visible(n, 2)
	if v2 == nil || string(m.value(v2)) != "abcdefgh" {
		t.Fatalf("snapshot 2 reads %+v", v2)
	}
	if v := m.visible(n, 3); v == nil || !v.tombstone() || m.version(n, v.older) != v2 {
		t.Fatalf("snapshot 3 reads %+v", v)
	}
	if want := grown - int64(len("ABCDEFGH")); m.sizeB != want {
		t.Fatalf("same-batch rewrite: sizeB = %d, want %d", m.sizeB, want)
	}
}

// The memtable's arena elements: a node is 48 bytes where the pointer
// skiplist's was 112 plus two size-class-rounded copies, and none of them
// holds a pointer, so the GC never scans a chunk.
func TestMemTableLayout(t *testing.T) {
	if sz := unsafe.Sizeof(memNode{}); sz != 48 {
		t.Fatalf("memNode is %d bytes, want 48", sz)
	}
	if sz := unsafe.Sizeof(memVersion{}); sz != 24 {
		t.Fatalf("memVersion is %d bytes, want 24", sz)
	}
	m := newMemTable(randutil.NewRand(1))
	for _, chunk := range []reflect.Type{
		reflect.TypeOf(m.nodes.chunk(0)),
		reflect.TypeOf(m.versions.inline[0]),
		reflect.TypeOf(m.links.chunk(0)),
		reflect.TypeOf(m.bytes.chunk(0)),
	} {
		elem := chunk.Elem()
		if p := pointerIn(elem); p != "" {
			t.Errorf("arena element %v holds a pointer: %s", elem, p)
		}
	}
}

// pointerIn names a part of typ that holds a pointer, or returns "".
func pointerIn(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerIn(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "." + p
			}
		}
		return ""
	}
	return typ.String()
}

// An iterator is one allocation for the common shapes (sources in its own
// buffer), and that allocation stays in the 384-byte size class.
func TestIteratorSizeAndAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(Iterator{}); sz > 384 {
		t.Fatalf("Iterator is %d bytes, want <= 384", sz)
	}
	e := newManualEngine(Options{})
	defer e.Close()
	for i := 0; i < 10; i++ {
		if err := e.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The active memtable over one L0 table.
	lo, hi := []byte("k"), []byte("l")
	allocs := testing.AllocsPerRun(100, func() {
		if it := e.NewIter(lo, hi); !it.Valid() {
			t.Fatal("iterator not on a key")
		}
	})
	if allocs != 1 {
		t.Fatalf("NewIter makes %v allocations, want 1", allocs)
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

// lsm.tables.probed counts the tables reads position in; the merges a flush
// and a compaction run count none, and a read after them still counts.
func TestMergesCountNoProbes(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			if err := e.Set([]byte(fmt.Sprintf("k%02d-%d", i, round)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		before := e.Metrics().TablesProbed
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.Compact()
		if probed := e.Metrics().TablesProbed - before; probed != 0 {
			t.Fatalf("round %d: a flush and a compaction probed %d tables, want 0", round, probed)
		}
	}
	if m := e.Metrics(); m.FlushCount != 3 || m.CompactionCount == 0 {
		t.Fatalf("%d flushes and %d compactions, want 3 and some", m.FlushCount, m.CompactionCount)
	}
	before := e.Metrics().TablesProbed
	if it := e.NewIter([]byte("k07-1"), nil); !it.Valid() || string(it.Key()) != "k07-1" {
		t.Fatal("k07-1 missing after compaction")
	}
	if probed := e.Metrics().TablesProbed - before; probed != 1 {
		t.Fatalf("a read positioned in the one table probed %d, want 1", probed)
	}
}
