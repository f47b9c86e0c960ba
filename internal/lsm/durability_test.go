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
// flushes and compactions with modest write counts.
func durableOpts(dir *Dir) Options {
	return Options{
		Durable:        dir,
		MemTableSize:   4 << 10,
		WALSegmentSize: 2 << 10,
	}
}

// syncWAL forces the WAL's buffered tail durable: everything written before
// it survives any crash after it.
func syncWAL(e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mu.wal.sync()
}

func TestOpenEmptyDir(t *testing.T) {
	e, err := Open(durableOpts(NewDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, ok := get(t, e, []byte("nothing")); ok {
		t.Fatal("fresh durable engine holds a key")
	}
	if err := e.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, e, []byte("a")); !ok || string(v) != "1" {
		t.Fatalf("read after Set = %q %v", v, ok)
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
		if v, ok := get(t, re, []byte(fmt.Sprintf("k%04d", i))); !ok || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("k%04d: get = %q %v", i, v, ok)
		}
	}
}

// writeWorkload applies a deterministic mixed workload (sets, overwrites,
// deletes, values of two sizes) to both the engine and a shadow map.
func writeWorkload(e *Engine, shadow map[string]string, seed int64, ops int) {
	rng := randutil.NewRand(seed)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("key-%04d", rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			e.Delete([]byte(key))
			delete(shadow, key)
		case 1, 2:
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
		v, ok := get(t, e, []byte(key))
		if ok != wantOK || (ok && string(v) != want) {
			t.Fatalf("%s: read %q %v, want %q %v", key, v, ok, want, wantOK)
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
// (flushes and compactions) before the crash, so recovery exercises manifest
// level state and sstable reloading, not just WAL replay.
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
			syncWAL(e)
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
				v, ok := get(t, re, []byte(k))
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

// tornWALPayloads are the records tornWAL syncs before the one it tears.
var tornWALPayloads = [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}

// tornWAL is a one-segment log written under a relaxed sync policy: the
// synced records of tornWALPayloads, then a fourth a crash tore to its first
// 3 bytes.
func tornWAL() *Dir {
	dir := NewDir()
	w := newWALWriter(dir, 1, 1<<20, 1<<20) // never auto-syncs
	for _, p := range tornWALPayloads {
		w.append(appendEntry(nil, 0, Entry{Key: p, Value: p}))
	}
	w.sync()
	w.append(appendEntry(nil, 0, Entry{Key: []byte("torn"), Value: []byte("torn")}))
	dir.Crash(3)
	return dir
}

// corruptWAL is a one-segment log of five synced records whose third has one
// payload byte flipped.
func corruptWAL() *Dir {
	dir := NewDir()
	w := newWALWriter(dir, 1, 1<<20, 0)
	for i := 0; i < 5; i++ {
		w.append(appendEntry(nil, 0, Entry{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")}))
	}
	name := walSegmentName(1)
	data, _ := dir.ReadFile(name)
	// Records are fixed-size here (8-byte frame + 7-byte entry: a flags byte,
	// three one-byte lengths, the key and the value), after the 8-byte
	// segment header.
	recLen := walRecordHeaderLen + 4 + 2 + 1
	data[walSegmentHeaderLen+2*recLen+walRecordHeaderLen+3] ^= 0xff
	dir.WriteFileSync(name, data)
	return dir
}

// TestTornTailTruncated: replay of tornWAL stops exactly at the torn record
// without corrupting earlier ones.
func TestTornTailTruncated(t *testing.T) {
	var got []string
	n, err := replayWAL(tornWAL(), 1, func(entries []Entry) {
		for _, e := range entries {
			got = append(got, string(e.Key))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tornWALPayloads) || len(got) != len(tornWALPayloads) {
		t.Fatalf("replayed %d records (%v), want %d", n, got, len(tornWALPayloads))
	}
	for i, p := range tornWALPayloads {
		if got[i] != string(p) {
			t.Fatalf("record %d = %q, want %q", i, got[i], p)
		}
	}
}

// TestCorruptRecordTruncates: replay of corruptWAL must stop at the corrupt
// record (CRC mismatch), keeping only the prefix.
func TestCorruptRecordTruncates(t *testing.T) {
	n, err := replayWAL(corruptWAL(), 1, func([]Entry) {})
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
	w.append(appendEntry(nil, 0, Entry{Key: []byte("k"), Value: []byte("v")}))
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

// flushedStore is a closed durable store of 400 small keys, flushed once:
// a manifest, one sstable, and the WAL past the flush.
func flushedStore() *Dir {
	dir := NewDir()
	e := New(durableOpts(dir))
	for i := 0; i < 400; i++ {
		e.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	e.Flush()
	e.Close()
	return dir
}

// withManifestVersion returns a copy of an encoded manifest stamped with
// version v, its checksum recomputed so only the version differs.
func withManifestVersion(data []byte, v uint32) []byte {
	data = append([]byte(nil), data...)
	binary.BigEndian.PutUint32(data[4:8], v)
	body := data[:len(data)-manifestChecksumLen]
	binary.BigEndian.PutUint32(data[len(data)-manifestChecksumLen:], crc32.Checksum(body, crc32cTable))
	return data
}

// v1Manifest returns the version-1 encoding of the same state as a current
// manifest: version 1 ended its body with a value-log section, here an empty
// one (active file 1, no files).
func v1Manifest(data []byte) []byte {
	body := append([]byte(nil), data[:len(data)-manifestChecksumLen]...)
	binary.BigEndian.PutUint32(body[4:8], 1)
	body = binary.BigEndian.AppendUint32(body, 1)
	body = binary.BigEndian.AppendUint32(body, 0)
	return binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crc32cTable))
}

// TestManifestVersionMismatch: same contract for the manifest, for the
// retired version 1 (which carried a value-log section) and a future one.
func TestManifestVersionMismatch(t *testing.T) {
	for name, rewrite := range map[string]func([]byte) []byte{
		"version 1": v1Manifest,
		"future":    func(data []byte) []byte { return withManifestVersion(data, manifestVersion+1) },
	} {
		dir := flushedStore()
		data, ok := dir.ReadFile(manifestName)
		if !ok {
			t.Fatal("no manifest after flush")
		}
		dir.WriteFileSync(manifestName, rewrite(data))
		if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: Open error = %v, want ErrVersionMismatch", name, err)
		}
	}
}

// TestManifestChecksumCorruption: a bit-flipped manifest is ErrCorruption.
func TestManifestChecksumCorruption(t *testing.T) {
	dir := flushedStore()
	data, _ := dir.ReadFile(manifestName)
	data[len(data)/2] ^= 0x01
	dir.WriteFileSync(manifestName, data)
	if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open error = %v, want ErrCorruption", err)
	}
}

// TestOpenTruncatedSSTable: sstable files carry no checksum, so a short or
// damaged one must fail Open with ErrCorruption — not panic it on a length
// read from the file. No path writes an empty table, so a file cut to nothing
// is corruption too, not a table whose keys are silently gone.
func TestOpenTruncatedSSTable(t *testing.T) {
	dir := flushedStore()
	ssts := dir.List("sst-")
	if len(ssts) == 0 {
		t.Fatal("test setup: no sstable persisted")
	}
	whole, _ := dir.ReadFile(ssts[0])
	damaged := map[string][]byte{
		"cut to nothing": whole[:0],
		"cut mid-entry":  whole[:len(whole)-1],
		"cut mid-header": whole[:2],
		"key length past the file": func() []byte {
			// The flags byte and shared length, then 2^31 where the first
			// key's one-byte unshared length was.
			b := binary.AppendUvarint([]byte{whole[0], whole[1]}, 1<<31)
			return append(b, whole[3:]...)
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

// retiredVptrEntry is an entry carrying flag 0x02, which once marked a value
// stored in a value log: a 12-byte (file, offset, length) pointer.
func retiredVptrEntry() []byte {
	b := appendEntry(nil, 0, Entry{Key: []byte("a"), Value: []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3}})
	b[0] = 0x02
	return b
}

// TestRetiredVptrFlagIsCorruption: a block or a WAL record carrying the
// retired value-pointer flag no longer decodes. In an sstable or a WAL record
// that passes its CRC, that is ErrCorruption, and Open refuses the store.
func TestRetiredVptrFlagIsCorruption(t *testing.T) {
	if _, err := decodeBlock(retiredVptrEntry()); !errors.Is(err, ErrCorruption) {
		t.Fatalf("decodeBlock error = %v, want ErrCorruption", err)
	}
	dir := NewDir()
	w := newWALWriter(dir, 1, 1<<20, 0)
	w.append(appendEntry(nil, 0, Entry{Key: []byte("k"), Value: []byte("v")}))
	w.append(retiredVptrEntry())
	n, err := replayWAL(dir, 1, func([]Entry) {})
	if !errors.Is(err, ErrCorruption) || n != 1 {
		t.Fatalf("replay = %d records, error %v; want 1 and ErrCorruption", n, err)
	}
	if _, err := Open(durableOpts(dir)); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open error = %v, want ErrCorruption", err)
	}
}

// encodeLike re-encodes ents, which decodeBlock decoded from data, each key
// sharing exactly as many bytes with the one before it as it did in data.
func encodeLike(data []byte, ents []Entry) []byte {
	var out []byte
	for i, off := 0, 0; i < len(ents); i++ {
		shared, _, _, _, next := entryAt(data, off)
		out = appendEntry(out, shared, ents[i])
		off = next
	}
	return out
}

// corruptBlocks are encoded entries decodeBlock must refuse, one for each way
// a header can lie.
func corruptBlocks() map[string][]byte {
	ab := appendEntry(nil, 0, Entry{Key: []byte("ab"), Value: []byte("v")})
	return map[string][]byte{
		"shares more than the key before it has": appendEntry(append([]byte(nil), ab...), 3, Entry{Key: []byte("abcd")}),
		"first entry shares":                     appendEntry(nil, 1, Entry{Key: []byte("ab")}),
		"truncated uvarint":                      {0, 0, 0x80},
		"overflowing uvarint":                    append([]byte{0, 0}, bytes.Repeat([]byte{0xff}, 10)...),
		"overlong uvarint":                       {0, 0x80, 0x00, 1, 0, 'k'},
		"key past the buffer":                    {0, 0, 5, 0, 'k'},
		"value past the buffer":                  {0, 0, 1, 9, 'k', 'v'},
		"length past the buffer":                 append([]byte{0, 0}, binary.AppendUvarint(nil, 1<<40)...),
		"unknown flag":                           {0x04, 0, 1, 0, 'k'},
	}
}

// TestDecodeBlockCorruption: every header that lies — a shared length longer
// than the key before it, a first entry that shares, a uvarint cut short,
// overflowing or longer than it needs to be, a length past the buffer, an
// unknown flag — is ErrCorruption, and the well-formed prefix of a block
// decodes.
func TestDecodeBlockCorruption(t *testing.T) {
	for name, b := range corruptBlocks() {
		if _, err := decodeBlock(b); !errors.Is(err, ErrCorruption) {
			t.Errorf("%s: decodeBlock(%x) error = %v, want ErrCorruption", name, b, err)
		}
	}
	var b []byte
	var prev []byte
	for _, k := range []string{"apple", "applesauce", "apply", "b", ""} {
		b = appendEntry(b, sharedLen(prev, []byte(k)), Entry{Key: []byte(k), Value: []byte(k)})
		prev = []byte(k)
	}
	// "" sorts first, but decoding does not check order: any sequence a
	// WAL batch holds decodes.
	ents, err := decodeBlock(b)
	if err != nil || formatEntries(ents) != "apple=apple applesauce=applesauce apply=apply b=b =" {
		t.Fatalf("decodeBlock = %s, %v", formatEntries(ents), err)
	}
}

// FuzzDecodeBlock feeds decodeBlock — which reads sstable files and WAL
// payloads — arbitrary bytes: it must never panic, every error must be
// ErrCorruption, and whatever it accepts must re-encode, each key sharing
// what it shared in the input, to exactly the input.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendEntry(nil, 0, Entry{Key: []byte("k"), Value: []byte("value")}))
	f.Add(appendEntry(nil, 0, Entry{Key: []byte("gone"), Tombstone: true}))
	two := appendEntry(nil, 0, Entry{Key: []byte("a"), Value: []byte("abc")})
	f.Add(appendEntry(two, 0, Entry{Key: []byte("b")}))
	f.Add(appendEntry(append([]byte(nil), two...), 1, Entry{Key: []byte("ab"), Value: []byte("x")}))
	f.Add(two[:len(two)-1])
	f.Add(append(two, retiredVptrEntry()...))
	for _, b := range corruptBlocks() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ents, err := decodeBlock(data)
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("error %v is not ErrCorruption", err)
			}
			return
		}
		if again := encodeLike(data, ents); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round trip changed the block:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzDecodeManifest feeds decodeManifest arbitrary bodies under a valid
// checksum — the fuzzer cannot forge a CRC, so without the recompute it would
// never get past the first check. Every error must be typed, and whatever
// decodes must re-encode to exactly the input.
func FuzzDecodeManifest(f *testing.F) {
	flushed, _ := flushedStore().ReadFile(manifestName)
	full := (&manifest{
		nextID: 9, minUnflushedSeg: 3, walSeg: 4,
		levels: [numLevels][]uint64{0: {8, 7}, 6: {5}},
	}).encode()
	for _, enc := range [][]byte{
		flushed,
		withManifestVersion(flushed, manifestVersion+1),
		v1Manifest(flushed),
		full,
		(&manifest{}).encode(),
	} {
		f.Add(enc[:len(enc)-manifestChecksumLen])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crc32cTable))
		m, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorruption) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("error %v is neither ErrCorruption nor ErrVersionMismatch", err)
			}
			return
		}
		if again := m.encode(); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode round trip changed the manifest:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzReplayWAL replays an arbitrary WAL segment out of a Dir. Replay must
// never panic; it must apply exactly the records framed before the first torn
// one (cut short, or failing its CRC), each as framed; and a record that
// passes its CRC but does not decode, or a segment of another format version,
// must stop it with a typed error.
func FuzzReplayWAL(f *testing.F) {
	segment := func(dir *Dir) []byte {
		data, _ := dir.ReadFile(walSegmentName(1))
		return data
	}
	torn := segment(tornWAL())
	otherVersion := append([]byte(nil), torn...)
	binary.BigEndian.PutUint32(otherVersion[4:8], walFormatVersion+1)
	undecodable := NewDir()
	w := newWALWriter(undecodable, 1, 1<<20, 0)
	w.append(appendEntry(nil, 0, Entry{Key: []byte("k"), Value: []byte("v")}))
	w.append([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0}) // a flag bit no build writes
	retired := NewDir()
	w = newWALWriter(retired, 1, 1<<20, 0)
	w.append(retiredVptrEntry())
	for _, seed := range [][]byte{torn, segment(corruptWAL()), otherVersion, segment(undecodable), segment(retired), torn[:walSegmentHeaderLen], nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := NewDir()
		dir.WriteFileSync(walSegmentName(1), seg)
		var applied [][]Entry // each applied record's entries
		n, err := replayWAL(dir, 1, func(ents []Entry) {
			applied = append(applied, ents)
		})

		// The records replay must apply, and the typed error it must stop with.
		var want [][]byte
		var wantErr error
		if len(seg) >= walSegmentHeaderLen && binary.BigEndian.Uint32(seg[0:4]) == walMagic {
			if binary.BigEndian.Uint32(seg[4:8]) != walFormatVersion {
				wantErr = ErrVersionMismatch
			}
			for off := walSegmentHeaderLen; wantErr == nil && off+walRecordHeaderLen <= len(seg); {
				start := off + walRecordHeaderLen
				end := start + int(binary.BigEndian.Uint32(seg[off+4:off+8]))
				if end > len(seg) || crc32.Checksum(seg[start:end], crc32cTable) != binary.BigEndian.Uint32(seg[off:off+4]) {
					break
				}
				if _, derr := decodeBlock(seg[start:end]); derr != nil {
					wantErr = ErrCorruption
					break
				}
				want = append(want, seg[start:end])
				off = end
			}
		}

		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("replay error = %v, want %v", err, wantErr)
		}
		if n != len(want) || len(applied) != len(want) {
			t.Fatalf("replay applied %d records (reported %d), want %d", len(applied), n, len(want))
		}
		for i := range want {
			if got := encodeLike(want[i], applied[i]); !bytes.Equal(got, want[i]) {
				t.Fatalf("record %d applied as %x, framed as %x", i, got, want[i])
			}
		}
	})
}

// TestWALBytesFramedAccounting verifies the satellite fix: WALBytes reports
// the actual framed bytes (record header + encoded entries), identically for
// durable and volatile engines.
func TestWALBytesFramedAccounting(t *testing.T) {
	key, val := []byte("k"), []byte("hello")
	// The entry: a flags byte, three one-byte lengths, the key and the value.
	wantFramed := int64(walRecordHeaderLen + 4 + len(key) + len(val))
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
	seg, _ := dir.ReadFile(walSegmentName(1))
	if got := int64(len(seg)); got != wantFramed+walSegmentHeaderLen {
		t.Fatalf("segment size = %d, want %d", got, wantFramed+walSegmentHeaderLen)
	}
}

// TestCompactionInstallsNoEmptyTable: a bottommost compaction that drops
// every entry installs no table — none in the level, the manifest or the
// directory — and still retires its inputs, round after round.
func TestCompactionInstallsNoEmptyTable(t *testing.T) {
	dir := NewDir()
	e := New(durableOpts(dir))
	e.noAutoCompact = true
	defer e.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			e.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		}
		e.Flush()
		e.Compact()
		for i := 0; i < 100; i++ {
			e.Delete([]byte(fmt.Sprintf("k%03d", i)))
		}
		e.Flush()
		e.Compact()

		e.mu.RLock()
		levels := e.mu.levels
		e.mu.RUnlock()
		for lvl, tables := range levels {
			if len(tables) > 0 {
				t.Fatalf("round %d: L%d holds %v", round, lvl, tables)
			}
		}
		m, ok, err := loadManifest(dir)
		if err != nil || !ok {
			t.Fatalf("round %d: manifest: ok=%v err=%v", round, ok, err)
		}
		for lvl, ids := range m.levels {
			if len(ids) > 0 {
				t.Fatalf("round %d: manifest lists L%d tables %v", round, lvl, ids)
			}
		}
		if files := dir.List("sst-"); len(files) > 0 {
			t.Fatalf("round %d: directory holds %v", round, files)
		}
		if it := e.NewIter(nil, nil); it.Valid() {
			t.Fatalf("round %d: deleted key %q still reads", round, it.Key())
		}
	}
	// With nothing left beneath it, the next compaction out of L0 is
	// bottommost and may drop tombstones: no empty table pins them.
	e.Delete([]byte("k000"))
	e.Flush()
	e.mu.Lock()
	plan := e.planCompactionLocked(0)
	e.mu.Unlock()
	if plan == nil || !plan.bottommost {
		t.Fatalf("L0 compaction plan %+v, want a bottommost one", plan)
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

// TestLargeValuesRoundTripInline: values of 64 KiB + 1 B, each 32 blocks'
// worth, are stored inline like any other and read back byte-identical from
// the memtable, after a flush, after a compaction, and after a crash and
// recovery, beside a small one.
func TestLargeValuesRoundTripInline(t *testing.T) {
	const n = 64<<10 + 1
	dir := NewDir()
	opts := Options{Durable: dir}
	e := New(opts)
	want := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := e.Set([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	check := func(stage string, e *Engine) {
		t.Helper()
		for k, v := range want {
			if got, ok := get(t, e, []byte(k)); !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: %s = %d bytes %v, want %d bytes", stage, k, len(got), ok, len(v))
			}
		}
	}
	put("small", []byte("inline"))
	put("big-a", bigVal("big-a-", n))
	put("big-b", bigVal("big-b-", n))
	check("memtable", e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check("L0", e)
	put("big-a", bigVal("big-a2-", n)) // an overwrite the compaction must prefer
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Compact()
	check("compacted", e)
	put("big-c", bigVal("big-c-", n)) // only in the WAL at the crash
	dir.Crash(0)
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("recovered", re)
}
