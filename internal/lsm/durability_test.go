package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"crdbserverless/internal/randutil"
)

// durableOpts returns small-table options over dir so tests exercise
// flushes, compactions, and value separation with modest write counts.
func durableOpts(dir *Dir) Options {
	return Options{
		Durable:         dir,
		MemTableSize:    4 << 10,
		WALSegmentSize:  2 << 10,
		ValueThreshold:  64,
		VlogFileSize:    4 << 10,
		BlockCacheBytes: 32 << 10,
	}
}

func TestOpenEmptyDir(t *testing.T) {
	e, err := Open(durableOpts(NewDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, ok, err := e.Get([]byte("nothing")); ok || err != nil {
		t.Fatalf("fresh durable engine Get = %v %v", ok, err)
	}
	if err := e.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("Get after Set = %q %v", v, ok)
	}
}

// TestOpenEmptyWAL covers recovery of a store that crashed after installing
// a manifest but before writing any further WAL records: the WAL segments
// at and above the unflushed floor are empty or absent.
func TestOpenEmptyWAL(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	for i := 0; i < 300; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	dir.Crash(0)
	re, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 300; i++ {
		v, ok, err := re.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("k%04d: Get = %q %v %v", i, v, ok, err)
		}
	}
}

// writeWorkload applies a deterministic mixed workload (sets, overwrites,
// deletes, large values bound for the value log) to both the engine and a
// shadow map, returning the number of operations applied.
func writeWorkload(e *Engine, shadow map[string]string, seed int64, ops int) {
	rng := randutil.NewRand(seed)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("key-%04d", rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			e.Delete([]byte(key))
			delete(shadow, key)
		case 1, 2:
			// Above ValueThreshold: routed to the value log.
			val := fmt.Sprintf("big-%06d-%s", i, string(make([]byte, 80)))
			e.Set([]byte(key), []byte(val))
			shadow[key] = val
		default:
			val := fmt.Sprintf("val-%06d", i)
			e.Set([]byte(key), []byte(val))
			shadow[key] = val
		}
	}
}

func checkAgainstShadow(t *testing.T, e *Engine, shadow map[string]string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		want, wantOK := shadow[key]
		v, ok, err := e.Get([]byte(key))
		if err != nil {
			t.Fatalf("%s: Get error %v", key, err)
		}
		if ok != wantOK || (ok && string(v) != want) {
			t.Fatalf("%s: Get = %q %v, want %q %v", key, v, ok, want, wantOK)
		}
	}
}

// TestCrashRecoverySyncedEveryRecord crashes a store whose fsync policy is
// sync-per-record: recovery must restore every acknowledged write exactly.
func TestCrashRecoverySyncedEveryRecord(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir)) // WALBytesPerSync 0: every record synced
	shadow := map[string]string{}
	writeWorkload(e, shadow, 42, 1200)
	// No Close: simulate a hard crash with a clean cut at the last sync.
	dir.Crash(0)
	re, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkAgainstShadow(t, re, shadow)
}

// TestCrashRecoveryAfterCompaction forces the full maintenance pipeline
// (flushes, compactions, value-log GC) before the crash, so recovery
// exercises manifest level state and vlog file reconstruction, not just WAL
// replay.
func TestCrashRecoveryAfterCompaction(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	shadow := map[string]string{}
	writeWorkload(e, shadow, 9, 4000)
	e.Compact()
	writeWorkload(e, shadow, 10, 500)
	dir.Crash(0)
	re, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkAgainstShadow(t, re, shadow)
	if m := re.Metrics(); m.CorruptionErrors != 0 {
		t.Fatalf("recovery surfaced %d corruption errors", m.CorruptionErrors)
	}
}

// TestCrashPointProperty is the randomized crash-point test: under a relaxed
// fsync policy, crash at arbitrary torn offsets (including mid-record) after
// arbitrary workload prefixes, recover, and require prefix consistency
// against a shadow map — every write synced before the crash is present, and
// any surviving tail value is one the workload actually wrote for that key,
// never garbage.
func TestCrashPointProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := randutil.NewRand(int64(1000 + trial))
			dir := NewDir()
			opts := durableOpts(dir)
			opts.WALBytesPerSync = int64(64 + rng.Intn(2048)) // relaxed: torn tails possible
			e := New(opts)
			shadow := map[string]string{}
			ops := 200 + rng.Intn(1800)
			writeWorkload(e, shadow, int64(trial), ops)
			if rng.Intn(2) == 0 {
				e.Flush()
			}
			// Force a sync barrier at a random point so "everything before
			// this is durable" has a witness set, then a few more unsynced ops
			// whose survival depends on where the tear lands.
			e.walSyncBarrier()
			durable := map[string]string{}
			for k, v := range shadow {
				durable[k] = v
			}
			post := map[string]map[string]bool{} // key → values written after the barrier ("" = delete)
			extra := rng.Intn(100)
			for i := 0; i < extra; i++ {
				key := fmt.Sprintf("key-%04d", rng.Intn(200))
				if post[key] == nil {
					post[key] = map[string]bool{}
				}
				if rng.Intn(10) == 0 {
					e.Delete([]byte(key))
					post[key][""] = true
				} else {
					val := fmt.Sprintf("post-%06d", i)
					e.Set([]byte(key), []byte(val))
					post[key][val] = true
				}
			}
			tear := rng.Intn(64) // 0 = clean cut, else torn mid-record offsets
			dir.Crash(tear)
			re, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			// Every durably-acknowledged write must be present and exact,
			// unless a surviving tail record legally overwrote or deleted it.
			for k, want := range durable {
				v, ok, err := re.Get([]byte(k))
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				switch {
				case ok && string(v) == want:
				case ok && post[k][string(v)]:
				case !ok && post[k][""]:
				default:
					t.Fatalf("%s: recovered %q (found=%v), want durable %q or a post-barrier value %v",
						k, v, ok, want, post[k])
				}
			}
		})
	}
}

// TestRecoveryDeterministic: recovering the same crashed directory state
// twice yields byte-identical engine behavior (same metrics shape, same
// values), the determinism contract the chaos harness depends on.
func TestRecoveryDeterministic(t *testing.T) {
	build := func() *Dir {
		dir := NewDir()
		opts := durableOpts(dir)
		opts.WALBytesPerSync = 512
		e := New(opts)
		shadow := map[string]string{}
		writeWorkload(e, shadow, 77, 2500)
		dir.Crash(13)
		return dir
	}
	snapshot := func(dir *Dir) string {
		e, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var out []byte
		it := e.NewIter(nil, nil)
		for ; it.Valid(); it.Next() {
			out = append(out, it.Key()...)
			out = append(out, '=')
			out = append(out, it.Value()...)
			out = append(out, '\n')
		}
		m := e.Metrics()
		return fmt.Sprintf("%s|wal=%d|mem=%d", out, m.WALBytes, m.MemTableBytes)
	}
	a, b := snapshot(build()), snapshot(build())
	if a != b {
		t.Fatalf("same-seed crash/recover runs diverged:\n%s\n---\n%s", a, b)
	}
}

// TestTornTailTruncated writes records under a relaxed sync policy, tears
// the final record in half, and verifies replay stops exactly at the torn
// record without corrupting earlier ones.
func TestTornTailTruncated(t *testing.T) {
	dir := NewDir()
	w := newWALWriter(dir, 1, 1<<20, 1<<20) // never auto-syncs
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for _, p := range payloads {
		w.append(appendEntry(nil, Entry{Key: p, Value: p}))
	}
	w.sync()
	// One more record, unsynced; crash keeps only 3 bytes of it.
	w.append(appendEntry(nil, Entry{Key: []byte("torn"), Value: []byte("torn")}))
	dir.Crash(3)
	var got []string
	n, err := replayWAL(dir, 1, func(entries []Entry) {
		for _, e := range entries {
			got = append(got, string(e.Key))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(payloads) || len(got) != len(payloads) {
		t.Fatalf("replayed %d records (%v), want %d", n, got, len(payloads))
	}
	for i, p := range payloads {
		if got[i] != string(p) {
			t.Fatalf("record %d = %q, want %q", i, got[i], p)
		}
	}
}

// TestCorruptRecordTruncates flips a payload byte mid-log: replay must stop
// at the corrupt record (CRC mismatch), keeping only the prefix.
func TestCorruptRecordTruncates(t *testing.T) {
	dir := NewDir()
	w := newWALWriter(dir, 1, 1<<20, 0)
	for i := 0; i < 5; i++ {
		w.append(appendEntry(nil, Entry{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")}))
	}
	name := walSegmentName(1)
	data, _ := dir.ReadFile(name)
	// Corrupt the payload of the third record: records are fixed-size here
	// (8-byte frame + 12-byte entry), after the 8-byte segment header.
	recLen := walRecordHeaderLen + 9 + 2 + 1
	off := walSegmentHeaderLen + 2*recLen + walRecordHeaderLen + 3
	data[off] ^= 0xff
	dir.WriteFileSync(name, data)
	n, err := replayWAL(dir, 1, func([]Entry) {})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records past a CRC mismatch, want 2", n)
	}
}

// TestWALVersionMismatch: a segment stamped with a future format version is
// a hard error, not a silent truncation.
func TestWALVersionMismatch(t *testing.T) {
	dir := NewDir()
	w := newWALWriter(dir, 1, 1<<20, 0)
	w.append(appendEntry(nil, Entry{Key: []byte("k"), Value: []byte("v")}))
	name := walSegmentName(1)
	data, _ := dir.ReadFile(name)
	binary.BigEndian.PutUint32(data[4:8], walFormatVersion+1)
	dir.WriteFileSync(name, data)
	if _, err := replayWAL(dir, 1, func([]Entry) {}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("replay error = %v, want ErrVersionMismatch", err)
	}
	// And through Open: the engine must refuse to come up.
	if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Open error = %v, want ErrVersionMismatch", err)
	}
}

// TestManifestVersionMismatch: same contract for the manifest.
func TestManifestVersionMismatch(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	for i := 0; i < 400; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	e.Flush()
	e.Close()
	data, ok := dir.ReadFile(manifestName)
	if !ok {
		t.Fatal("no manifest after flush")
	}
	binary.BigEndian.PutUint32(data[4:8], manifestVersion+1)
	// Recompute the checksum so only the version (not the CRC) trips.
	body := data[:len(data)-manifestChecksumLen]
	binary.BigEndian.PutUint32(data[len(data)-manifestChecksumLen:], crc32.Checksum(body, crc32cTable))
	dir.WriteFileSync(manifestName, data)
	if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Open error = %v, want ErrVersionMismatch", err)
	}
}

// TestManifestChecksumCorruption: a bit-flipped manifest is ErrCorruption.
func TestManifestChecksumCorruption(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	for i := 0; i < 400; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	e.Flush()
	e.Close()
	data, _ := dir.ReadFile(manifestName)
	data[len(data)/2] ^= 0x01
	dir.WriteFileSync(manifestName, data)
	if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open error = %v, want ErrCorruption", err)
	}
}

// TestOpenTruncatedSSTable: sstable files carry no checksum, so a short or
// damaged one must fail Open with ErrCorruption — not panic it on a length
// read from the file.
func TestOpenTruncatedSSTable(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	for i := 0; i < 400; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	e.Flush()
	e.Close()
	ssts := dir.List("sst-")
	if len(ssts) == 0 {
		t.Fatal("test setup: no sstable persisted")
	}
	whole, _ := dir.ReadFile(ssts[0])
	damaged := map[string][]byte{
		"cut mid-entry":  whole[:len(whole)-1],
		"cut mid-header": whole[:entryHeaderLen/2],
		"key length past the file": func() []byte {
			b := append([]byte(nil), whole...)
			binary.BigEndian.PutUint32(b[1:5], 1<<31)
			return b
		}(),
	}
	for name, data := range damaged {
		dir.WriteFileSync(ssts[0], data)
		if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrCorruption) {
			t.Fatalf("%s: Open error = %v, want ErrCorruption", name, err)
		}
	}
	dir.WriteFileSync(ssts[0], whole)
	re, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("Open over the restored file: %v", err)
	}
	re.Close()
}

// FuzzDecodeBlock feeds decodeBlock — which reads sstable files and WAL
// payloads — arbitrary bytes: it must never panic, and whatever it accepts
// must re-encode to exactly the input.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendEntry(nil, Entry{Key: []byte("k"), Value: []byte("value")}))
	f.Add(appendEntry(nil, Entry{Key: []byte("gone"), Tombstone: true}))
	two := appendEntry(nil, Entry{Key: []byte("a"), Value: encodeValuePointer(valuePointer{fileID: 1, offset: 2, length: 3}), vptr: true})
	f.Add(appendEntry(two, Entry{Key: []byte("b")}))
	f.Add(two[:len(two)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		ents, err := decodeBlock(data)
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("error %v is not ErrCorruption", err)
			}
			return
		}
		var again []byte
		for _, ent := range ents {
			again = appendEntry(again, ent)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round trip changed the block:\n in  %x\n out %x", data, again)
		}
	})
}

// TestWALBytesFramedAccounting verifies the satellite fix: WALBytes reports
// the actual framed bytes (record header + encoded entries), identically for
// durable and volatile engines.
func TestWALBytesFramedAccounting(t *testing.T) {
	key, val := []byte("k"), []byte("hello")
	wantFramed := int64(walRecordHeaderLen + 9 + len(key) + len(val))
	vol := New(Options{})
	defer vol.Close()
	vol.Set(key, val)
	if m := vol.Metrics(); m.WALBytes != wantFramed {
		t.Fatalf("volatile WALBytes = %d, want %d", m.WALBytes, wantFramed)
	}
	dir := NewDir()
	dur := New(Options{Durable: dir})
	defer dur.Close()
	dur.Set(key, val)
	m := dur.Metrics()
	if m.WALBytes != wantFramed {
		t.Fatalf("durable WALBytes = %d, want %d", m.WALBytes, wantFramed)
	}
	if m.WALFsyncs == 0 {
		t.Fatal("durable engine with sync-every-record policy reported 0 fsyncs")
	}
	// The segment file really holds the framed record (plus its header).
	if got := dir.Size(walSegmentName(1)); got != wantFramed+walSegmentHeaderLen {
		t.Fatalf("segment size = %d, want %d", got, wantFramed+walSegmentHeaderLen)
	}
}

// TestGetCorruptionTyped verifies the satellite fix: a pointer into a
// genuinely deleted value-log file surfaces ErrCorruption (not the internal
// retry sentinel) and bumps the corruption counter.
func TestGetCorruptionTyped(t *testing.T) {
	e := New(Options{ValueThreshold: 8, VlogFileSize: 64})
	defer e.Close()
	big := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	e.Set([]byte("a"), big) // fills file 1 past rotation size
	e.Set([]byte("b"), big) // rotates to file 2, so file 1 is deletable
	// Simulate corruption: force-delete file 1 while a's pointer still
	// references it (bypassing GC's rewrite-then-delete protocol).
	if n := e.vlog.deleteFile(1); n == 0 {
		t.Fatal("test setup: vlog file 1 not deletable")
	}
	_, ok, err := e.Get([]byte("a"))
	if ok || !errors.Is(err, ErrCorruption) {
		t.Fatalf("Get = %v %v, want ErrCorruption", ok, err)
	}
	if errors.Is(err, errVlogFileGone) {
		t.Fatal("internal errVlogFileGone sentinel leaked through the wrap")
	}
	if m := e.Metrics(); m.CorruptionErrors != 1 {
		t.Fatalf("CorruptionErrors = %d, want 1", m.CorruptionErrors)
	}
}

// TestRecoveryPreservesDeterministicIDs: a recovered engine continues the
// file-id sequence where the crashed one left off, so post-recovery flushes
// produce the same ids a surviving engine would have.
func TestRecoveryPreservesDeterministicIDs(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	for i := 0; i < 800; i++ {
		e.Set([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	e.Flush()
	wantNext := e.mu.nextID
	dir.Crash(0)
	re, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.mu.nextID != wantNext {
		t.Fatalf("recovered nextID = %d, want %d", re.mu.nextID, wantNext)
	}
}
