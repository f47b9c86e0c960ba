package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"crdbserverless/internal/faultinject"
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
		if v, ok, err := e.Get([]byte("big")); err != nil || !ok || !bytes.Equal(v, big) {
			t.Fatalf("%s: Get(big) = %d bytes, ok=%v, err=%v", stage, len(v), ok, err)
		}
		if v, ok, err := e.Get([]byte("small")); err != nil || !ok || !bytes.Equal(v, small) {
			t.Fatalf("%s: Get(small) = %q, ok=%v, err=%v", stage, v, ok, err)
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
		if v, ok, err := e.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("after GC: Get(%s) = %d bytes, ok=%v, err=%v", k, len(v), ok, err)
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
			if v, ok, err := e.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: Get(%s) = %d bytes, ok=%v, err=%v", stage, k, len(v), ok, err)
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
	if v, ok, err := e.Get([]byte("k")); err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("Get after fallback = %d bytes, ok=%v, err=%v", len(v), ok, err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	if v, ok, err := e.Get([]byte("k")); err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("Get after compaction = %d bytes, ok=%v, err=%v", len(v), ok, err)
	}
}

// Regression: a tombstone found at a shallow level must short-circuit the
// probe walk — deeper levels hold only shadowed versions.
func TestTombstoneShortCircuitsProbes(t *testing.T) {
	e := newManualEngine(Options{})
	defer e.Close()

	// The key's only live version sits in L1.
	if err := e.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Compact()

	// Case 1: tombstone in the memtable — no table may be probed at all.
	if err := e.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	probedBefore := e.Metrics().TablesProbed
	if _, ok, err := e.Get([]byte("k")); err != nil || ok {
		t.Fatalf("deleted key visible: ok=%v err=%v", ok, err)
	}
	if d := e.Metrics().TablesProbed - probedBefore; d != 0 {
		t.Fatalf("memtable tombstone probed %d tables, want 0", d)
	}

	// Case 2: tombstone flushed to L0 — exactly the L0 table is probed, never
	// the L1 table beneath it.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	probedBefore = e.Metrics().TablesProbed
	if _, ok, err := e.Get([]byte("k")); err != nil || ok {
		t.Fatalf("deleted key visible from L0: ok=%v err=%v", ok, err)
	}
	if d := e.Metrics().TablesProbed - probedBefore; d != 1 {
		t.Fatalf("L0 tombstone probed %d tables, want 1 (the L0 table only)", d)
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
