package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"crdbserverless/internal/randutil"
)

// newIterTestEngine keeps memtables, levels, vlog files and the separation
// threshold small, so a few hundred writes cross flushes, compactions,
// value-log rotation and GC, and most values are read through a pointer.
func newIterTestEngine() *Engine {
	e := newEngineWithL0(Options{
		MemTableSize:   2 << 10,
		ValueThreshold: 64,
		VlogFileSize:   2 << 10,
	}, 3)
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
// seeded stream of sets, deletes, multi-key batches, flushes, compactions and
// value-log GC rounds, and between them walks random iterators with NewIter,
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
				v := make([]byte, 1+rng.Intn(160)) // about half cross ValueThreshold
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
				if err := it.Error(); err != nil {
					t.Fatal(err)
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
				case r < 88:
					e.VlogGC()
				default:
					walk()
				}
			}
			walk()
			m := e.Metrics()
			if m.FlushCount == 0 || m.CompactionCount == 0 || m.VlogWrites == 0 || m.VlogGCRewritten == 0 {
				t.Fatalf("run did not exercise flush/compaction/vlog/GC: %+v", m)
			}
		})
	}
}

// TestIteratorSnapshot: an iterator yields exactly the state it was created
// over — separated values included — however the engine is rewritten around
// it afterwards: every key overwritten, every other one deleted, new keys
// inserted on both sides of each, then a flush, a full compaction and a
// value-log GC that deletes the files its pointers name.
func TestIteratorSnapshot(t *testing.T) {
	e := newIterTestEngine()
	defer e.Close()
	want := map[string]string{}
	put := func(i int, gen string) {
		k := fmt.Sprintf("k%03d-m", i)
		v := fmt.Sprintf("%s-%03d-%s", gen, i, bytes.Repeat([]byte{'x'}, (i%3)*60)) // a third inline
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
	e.VlogGC()
	gone := 0
	now := e.vlog.fileSet()
	for id := range it.vfiles {
		if now[id] == nil {
			gone++
		}
	}
	if gone == 0 {
		t.Fatalf("GC deleted none of the snapshot's %d value-log files", len(it.vfiles))
	}

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
		if err := it.Error(); err != nil {
			t.Fatal(err)
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
	e := newEngineWithL0(Options{MemTableSize: 4 << 10, ValueThreshold: 64, VlogFileSize: 4 << 10}, 3)
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
				if err := it.Error(); err != nil {
					t.Error(err)
					return
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

// TestIteratorCorruptPointer: a surfaced value pointer that does not resolve
// against the snapshot's file set is typed corruption on Error, counted, with
// a nil Value.
func TestIteratorCorruptPointer(t *testing.T) {
	e := New(Options{ValueThreshold: 8, VlogFileSize: 64})
	defer e.Close()
	big := bytes.Repeat([]byte("0123456789abcdef"), 4)
	e.Set([]byte("a"), big) // fills file 1 past rotation size
	e.Set([]byte("b"), big) // rotates to file 2, so file 1 is deletable
	// Force-delete file 1 while a's pointer still names it, bypassing GC's
	// rewrite-then-delete protocol — before the snapshot, so it is not held.
	if n := e.vlog.deleteFile(1); n == 0 {
		t.Fatal("test setup: vlog file 1 not deletable")
	}
	it := e.NewIter(nil, nil)
	if !it.Valid() || string(it.Key()) != "a" {
		t.Fatalf("iterator not on key a")
	}
	if v := it.Value(); v != nil {
		t.Fatalf("Value = %q, want nil", v)
	}
	if err := it.Error(); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Error = %v, want ErrCorruption", err)
	}
	if m := e.Metrics(); m.CorruptionErrors != 1 {
		t.Fatalf("CorruptionErrors = %d, want 1", m.CorruptionErrors)
	}
	it.Next()
	if !it.Valid() || !bytes.Equal(it.Value(), big) {
		t.Fatal("iterator did not carry on to key b")
	}
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
	old, replaced := m.set(Entry{Key: k, Value: []byte("abcdefgh")}, 2, 0)
	if !replaced || string(old.Value) != "12345678" || m.sizeB != base {
		t.Fatalf("unobserved overwrite: replaced=%v old=%q sizeB %d -> %d", replaced, old.Value, base, m.sizeB)
	}
	n := m.seek(k, nil)
	if n.newest.Load() != nil {
		t.Fatal("unobserved overwrite pushed a version")
	}
	if n.visible(0) != nil {
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
	if v := n.visible(2); v == nil || string(v.value) != "abcdefgh" {
		t.Fatalf("snapshot 2 reads %+v", v)
	}
	if v := n.visible(3); v == nil || !v.tombstone || v.older != n.visible(2) {
		t.Fatalf("snapshot 3 reads %+v", v)
	}
	if want := grown - int64(len("ABCDEFGH")); m.sizeB != want {
		t.Fatalf("same-batch rewrite: sizeB = %d, want %d", m.sizeB, want)
	}
	// 76 k of these are most of new_order's live heap: the node must not grow.
	if sz := unsafe.Sizeof(skipNode{}); sz > 112 {
		t.Fatalf("skipNode is %d bytes, want <= 112", sz)
	}
}
