package lsm

import (
	"testing"

	"crdbserverless/internal/faultinject"
)

// An injected flush failure is a background error: the memtable stays, the
// write that crossed the threshold still succeeds, and the rotation is
// retried at the next opportunity. Only an explicit Flush surfaces the error.
func TestInjectedFlushErrorKeepsMemTable(t *testing.T) {
	reg := faultinject.New(1, nil)
	e := New(Options{MemTableSize: 8, Faults: reg})
	reg.Enable("lsm.flush.error", faultinject.Site{Probability: 1, MaxFires: 2})

	// Crosses the threshold; the flush attempt fails silently.
	if err := e.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.FlushCount != 0 || m.MemTableBytes == 0 {
		t.Fatalf("after failed flush: FlushCount=%d MemTableBytes=%d", m.FlushCount, m.MemTableBytes)
	}
	if v, ok := get(t, e, []byte("alpha")); !ok || string(v) != "one" {
		t.Fatalf("read after failed flush = %q %v", v, ok)
	}
	// The second fire surfaces on the explicit flush.
	if err := e.Flush(); !faultinject.IsInjected(err) {
		t.Fatalf("explicit flush err = %v, want injected fault", err)
	}
	if v, ok := get(t, e, []byte("alpha")); !ok || string(v) != "one" {
		t.Fatalf("read after failed explicit flush = %q %v", v, ok)
	}
	// Fires exhausted: the retried flush succeeds and nothing was lost.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.FlushCount != 1 || m.L0Files != 1 || m.MemTableBytes != 0 {
		t.Fatalf("after recovery: %+v", m)
	}
	if v, ok := get(t, e, []byte("alpha")); !ok || string(v) != "one" {
		t.Fatalf("read after recovered flush = %q %v", v, ok)
	}
}

// An injected compaction failure skips the round, leaving the L0 backlog in
// place; once the site stops firing, the next write re-triggers the
// scheduler and the backlog drains.
func TestInjectedCompactionErrorSkipsRound(t *testing.T) {
	reg := faultinject.New(2, nil)
	e := newEngineWithL0(Options{MemTableSize: 8, Faults: reg}, 2)
	reg.Enable("lsm.compact.error", faultinject.Site{Probability: 1})

	for i := 0; i < 4; i++ {
		if err := e.Set([]byte{byte('a' + i)}, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.CompactionCount != 0 || m.L0Files < e.l0Threshold {
		t.Fatalf("backlog should persist under injected failures: %+v", m)
	}
	reg.DisableAll()
	if err := e.Set([]byte("zz"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.CompactionCount == 0 || m.L0Files >= e.l0Threshold {
		t.Fatalf("backlog should drain once the site is disabled: %+v", m)
	}
	// Every key still reads back through the compacted shape.
	for i := 0; i < 4; i++ {
		if v, ok := get(t, e, []byte{byte('a' + i)}); !ok || string(v) != "value" {
			t.Fatalf("read %c = %q %v", 'a'+i, v, ok)
		}
	}
}
