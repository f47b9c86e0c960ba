package mvcc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
)

func ts(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }

func newEngine() *lsm.Engine { return lsm.New(lsm.Options{}) }

func TestEncodeKeyNewestFirst(t *testing.T) {
	k := keys.Key("user")
	newer := EncodeKey(k, ts(10))
	older := EncodeKey(k, ts(5))
	if bytes.Compare(newer, older) >= 0 {
		t.Fatal("newer version must sort before older")
	}
	sameWall := EncodeKey(k, hlc.Timestamp{WallTime: 10, Logical: 3})
	if bytes.Compare(sameWall, newer) >= 0 {
		t.Fatal("higher logical must sort before lower at same wall")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(user []byte, wall int64, logical int32) bool {
		if wall < 0 {
			wall = -wall
		}
		if logical < 0 {
			logical = -logical
		}
		in := hlc.Timestamp{WallTime: wall, Logical: logical}
		k, gotTs, err := DecodeKey(EncodeKey(keys.Key(user), in))
		return err == nil && bytes.Equal(k, user) && gotTs.Equal(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, _, err := DecodeKey([]byte{0x99}); err == nil {
		t.Fatal("garbage key should error")
	}
	valid := EncodeKey(keys.Key("k"), ts(1))
	if _, _, err := DecodeKey(valid[:len(valid)-1]); err == nil {
		t.Fatal("truncated key should error")
	}
	if _, _, err := DecodeKey(append(valid, 0x01)); err == nil {
		t.Fatal("trailing bytes should error")
	}
}

func TestPutGetAtTimestamps(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	if err := Put(e, k, ts(10), 0, []byte("v10")); err != nil {
		t.Fatal(err)
	}
	if err := Put(e, k, ts(20), 0, []byte("v20")); err != nil {
		t.Fatal(err)
	}
	// Read below the first version: not found.
	if _, ok, err := Get(e, k, ts(5), 0); err != nil || ok {
		t.Fatalf("read@5 = ok=%v err=%v", ok, err)
	}
	// Snapshot reads see the version at or below their timestamp.
	if v, ok, _ := Get(e, k, ts(10), 0); !ok || string(v) != "v10" {
		t.Fatalf("read@10 = %q %v", v, ok)
	}
	if v, ok, _ := Get(e, k, ts(15), 0); !ok || string(v) != "v10" {
		t.Fatalf("read@15 = %q %v", v, ok)
	}
	if v, ok, _ := Get(e, k, ts(25), 0); !ok || string(v) != "v20" {
		t.Fatalf("read@25 = %q %v", v, ok)
	}
}

func TestWriteTooOld(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(20), 0, []byte("v"))
	err := Put(e, k, ts(10), 0, []byte("stale"))
	var wto *kvpb.WriteTooOldError
	if !errors.As(err, &wto) {
		t.Fatalf("expected WriteTooOldError, got %v", err)
	}
	if !ts(20).Less(wto.ActualTs) {
		t.Fatalf("ActualTs %v must exceed existing version ts", wto.ActualTs)
	}
}

func TestDeleteTombstone(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 0, []byte("v"))
	if err := Delete(e, k, ts(20), 0); err != nil {
		t.Fatal(err)
	}
	// Old snapshot still sees the value (time travel).
	if v, ok, _ := Get(e, k, ts(15), 0); !ok || string(v) != "v" {
		t.Fatalf("read@15 after delete = %q %v", v, ok)
	}
	// New snapshot sees the deletion.
	if _, ok, _ := Get(e, k, ts(25), 0); ok {
		t.Fatal("read@25 should not see deleted key")
	}
}

func TestIntentVisibilityRules(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 0, []byte("committed"))
	if err := Put(e, k, ts(20), 77, []byte("provisional")); err != nil {
		t.Fatal(err)
	}
	// The writing txn reads its own intent.
	if v, ok, err := Get(e, k, ts(20), 77); err != nil || !ok || string(v) != "provisional" {
		t.Fatalf("own intent read = %q %v %v", v, ok, err)
	}
	// Another reader below the intent timestamp reads underneath it.
	if v, ok, err := Get(e, k, ts(15), 0); err != nil || !ok || string(v) != "committed" {
		t.Fatalf("read below intent = %q %v %v", v, ok, err)
	}
	// A reader at/above the intent timestamp conflicts.
	_, _, err := Get(e, k, ts(25), 0)
	var wie *kvpb.WriteIntentError
	if !errors.As(err, &wie) || wie.TxnID != 77 {
		t.Fatalf("expected WriteIntentError{77}, got %v", err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 1, []byte("txn1"))
	err := Put(e, k, ts(20), 2, []byte("txn2"))
	var wie *kvpb.WriteIntentError
	if !errors.As(err, &wie) || wie.TxnID != 1 {
		t.Fatalf("expected WriteIntentError{1}, got %v", err)
	}
}

func TestIntentRewriteBySameTxn(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 5, []byte("v1"))
	if err := Put(e, k, ts(12), 5, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := Get(e, k, ts(12), 5)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("rewritten intent = %q %v %v", v, ok, err)
	}
	// Only one intent exists: committing yields exactly one version.
	if err := ResolveIntent(e, k, 5, true, ts(12)); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := Get(e, k, ts(100), 0); !ok || string(v) != "v2" {
		t.Fatalf("after commit = %q %v", v, ok)
	}
}

// A committed version goes straight to the engine, with no look at the key's
// history — sound because only an intent can have an earlier intent of its
// own to replace. Where a transaction's intent does sit at the timestamp (a
// commit batch first laid down intents, then reached a range whole), the
// committed version has the same storage key and replaces it.
func TestCommittedVersionReplacesOwnIntentInPlace(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	if err := Put(e, k, ts(10), 5, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := ApplyPut(e, k, ts(10), 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if iks, err := IntentKeys(e, keys.Span{Key: k}, 0); err != nil || len(iks) != 0 {
		t.Fatalf("intents after committed write = %v, %v", iks, err)
	}
	if v, ok, err := Get(e, k, ts(10), 0); err != nil || !ok || string(v) != "v" {
		t.Fatalf("foreign read = %q %v %v", v, ok, err)
	}
}

func TestCommittedVersionAt(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 0, []byte("v10"))
	Delete(e, k, ts(20), 0)
	Put(e, k, ts(30), 7, []byte("intent"))
	if v, ok, err := CommittedVersionAt(e, k, ts(10)); err != nil || !ok || string(v.Data) != "v10" || v.Tombstone {
		t.Fatalf("version at 10 = %+v %v %v", v, ok, err)
	}
	if v, ok, err := CommittedVersionAt(e, k, ts(20)); err != nil || !ok || !v.Tombstone {
		t.Fatalf("version at 20 = %+v %v %v, want a tombstone", v, ok, err)
	}
	// An intent is not a committed version, and neighbours do not count.
	for _, at := range []int64{30, 15, 5} {
		if v, ok, err := CommittedVersionAt(e, k, ts(at)); err != nil || ok {
			t.Fatalf("version at %d = %+v %v %v, want none", at, v, ok, err)
		}
	}
}

func TestResolveIntentCommit(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 9, []byte("v"))
	if err := ResolveIntent(e, k, 9, true, ts(12)); err != nil {
		t.Fatal(err)
	}
	// Committed at ts 12, not 10.
	if _, ok, _ := Get(e, k, ts(11), 0); ok {
		t.Fatal("value should not be visible below commit ts")
	}
	if v, ok, err := Get(e, k, ts(12), 0); err != nil || !ok || string(v) != "v" {
		t.Fatalf("committed read = %q %v %v", v, ok, err)
	}
}

func TestResolveIntentAbort(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(5), 0, []byte("old"))
	Put(e, k, ts(10), 9, []byte("aborted"))
	if err := ResolveIntent(e, k, 9, false, hlc.Timestamp{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := Get(e, k, ts(100), 0)
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("after abort = %q %v %v", v, ok, err)
	}
}

func TestResolveIntentIdempotent(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 9, []byte("v"))
	ResolveIntent(e, k, 9, true, ts(10))
	// Second resolution is a no-op, not an error, and must not disturb the
	// committed version.
	if err := ResolveIntent(e, k, 9, true, ts(10)); err != nil {
		t.Fatal(err)
	}
	// Resolving a different txn's id is also a no-op.
	if err := ResolveIntent(e, k, 42, false, hlc.Timestamp{}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := Get(e, k, ts(10), 0); !ok || string(v) != "v" {
		t.Fatalf("value disturbed: %q %v", v, ok)
	}
}

func TestScanBasics(t *testing.T) {
	e := newEngine()
	defer e.Close()
	for i := 0; i < 5; i++ {
		Put(e, keys.Key(fmt.Sprintf("k%d", i)), ts(10), 0, []byte(fmt.Sprintf("v%d", i)))
	}
	Delete(e, keys.Key("k2"), ts(20), 0)
	res, err := Scan(e, keys.Span{Key: keys.Key("k0"), EndKey: keys.Key("k9")}, ts(30), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, string(r.Key)+"="+string(r.Value))
	}
	want := []string{"k0=v0", "k1=v1", "k3=v3", "k4=v4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if res.Resume != nil {
		t.Fatal("unexpected resume span")
	}
}

func TestScanSnapshot(t *testing.T) {
	e := newEngine()
	defer e.Close()
	Put(e, keys.Key("a"), ts(10), 0, []byte("a10"))
	Put(e, keys.Key("a"), ts(30), 0, []byte("a30"))
	Put(e, keys.Key("b"), ts(20), 0, []byte("b20"))
	res, err := Scan(e, keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}, ts(15), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || string(res.Rows[0].Value) != "a10" {
		t.Fatalf("snapshot scan = %+v", res.Rows)
	}
}

func TestScanResumeSpan(t *testing.T) {
	e := newEngine()
	defer e.Close()
	for i := 0; i < 10; i++ {
		Put(e, keys.Key(fmt.Sprintf("k%d", i)), ts(10), 0, []byte("v"))
	}
	span := keys.Span{Key: keys.Key("k0"), EndKey: keys.Key("k9\xff")}
	res, err := Scan(e, span, ts(20), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if res.Resume == nil || !res.Resume.Key.Equal(keys.Key("k3")) {
		t.Fatalf("resume = %v, want start at k3", res.Resume)
	}
	// Resuming covers the remainder exactly once.
	res2, err := Scan(e, *res.Resume, ts(20), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 7 {
		t.Fatalf("resumed scan rows = %d, want 7", len(res2.Rows))
	}
}

func TestScanIntentConflict(t *testing.T) {
	e := newEngine()
	defer e.Close()
	Put(e, keys.Key("a"), ts(10), 0, []byte("v"))
	Put(e, keys.Key("b"), ts(10), 3, []byte("intent"))
	_, err := Scan(e, keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}, ts(20), 0, 0)
	var wie *kvpb.WriteIntentError
	if !errors.As(err, &wie) || wie.TxnID != 3 {
		t.Fatalf("expected intent conflict, got %v", err)
	}
	// The same scan by the intent's owner succeeds and sees the intent.
	res, err := Scan(e, keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}, ts(20), 3, 0)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("owner scan = %+v, %v", res.Rows, err)
	}
}

func TestScanPointSpan(t *testing.T) {
	e := newEngine()
	defer e.Close()
	Put(e, keys.Key("a"), ts(10), 0, []byte("v"))
	Put(e, keys.Key("a2"), ts(10), 0, []byte("x"))
	res, err := Scan(e, keys.Span{Key: keys.Key("a")}, ts(20), 0, 0)
	if err != nil || len(res.Rows) != 1 || string(res.Rows[0].Key) != "a" {
		t.Fatalf("point scan = %+v %v", res.Rows, err)
	}
}

func TestGCOldVersions(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	for i := int64(1); i <= 5; i++ {
		Put(e, k, ts(i*10), 0, []byte(fmt.Sprintf("v%d", i)))
	}
	// Keep versions newer than ts 100 (none) -> newest committed survives.
	n, err := GCOldVersions(e, keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}, ts(100))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("gc removed %d versions, want 4", n)
	}
	if v, ok, _ := Get(e, k, ts(100), 0); !ok || string(v) != "v5" {
		t.Fatalf("newest version lost: %q %v", v, ok)
	}
	// Historical read below the GC'd versions now misses.
	if _, ok, _ := Get(e, k, ts(15), 0); ok {
		t.Fatal("GC'd version still visible")
	}
}

func TestGCKeepsIntentsAndRecent(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	Put(e, k, ts(10), 0, []byte("old"))
	Put(e, k, ts(20), 0, []byte("mid"))
	Put(e, k, ts(30), 7, []byte("intent"))
	// keepAfter=15: version@20 is recent, intent survives, version@10 is
	// shadowed by version@20 (the newest committed <= keepAfter boundary
	// logic retains the newest non-recent committed version as well).
	n, err := GCOldVersions(e, keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}, ts(15))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("gc removed %d, want 1 (only v@10)", n)
	}
	if v, ok, err := Get(e, k, ts(30), 7); err != nil || !ok || string(v) != "intent" {
		t.Fatalf("intent lost: %q %v %v", v, ok, err)
	}
	if v, ok, _ := Get(e, k, ts(25), 0); !ok || string(v) != "mid" {
		t.Fatalf("recent version lost: %q %v", v, ok)
	}
}

func TestMVCCPropertySnapshotIsolation(t *testing.T) {
	// Property: non-transactional writes at increasing timestamps; any read
	// at timestamp T sees exactly the last write at or before T.
	type write struct {
		KeyIdx uint8
		Val    uint16
	}
	f := func(ws []write) bool {
		e := newEngine()
		defer e.Close()
		history := map[string][]struct {
			ts  int64
			val string
		}{}
		for i, w := range ws {
			k := fmt.Sprintf("k%d", w.KeyIdx%8)
			v := fmt.Sprintf("v%d", w.Val)
			wts := int64(i + 1)
			if err := Put(e, keys.Key(k), ts(wts), 0, []byte(v)); err != nil {
				return false
			}
			history[k] = append(history[k], struct {
				ts  int64
				val string
			}{wts, v})
		}
		for k, h := range history {
			for _, probe := range []int64{0, 1, int64(len(ws) / 2), int64(len(ws)) + 5} {
				var want string
				found := false
				for _, rec := range h {
					if rec.ts <= probe {
						want = rec.val
						found = true
					}
				}
				got, ok, err := Get(e, keys.Key(k), ts(probe), 0)
				if err != nil {
					return false
				}
				if ok != found || (found && string(got) != want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Intent resolution reaches the engine as ordinary Delete+Set batches, so a
// hot-key-cached engine must invalidate the resolved keys: a raw read cached
// before resolution cannot be served stale afterwards, and the committed
// version must be immediately visible at the MVCC level.
func TestResolveIntentInvalidatesHotCache(t *testing.T) {
	e := lsm.New(lsm.Options{HotKeyCacheSize: 64, ValueThreshold: 16})
	defer e.Close()
	k := keys.Key("acct")
	val := bytes.Repeat([]byte("x"), 32) // above the separation threshold

	if err := Put(e, k, ts(5), 77, val); err != nil {
		t.Fatal(err)
	}
	// Warm the hot cache on the intent's raw storage key.
	raw := EncodeKey(k, ts(5))
	for i := 0; i < 2; i++ {
		if v, ok, err := e.Get(raw); err != nil || !ok || len(v) == 0 {
			t.Fatalf("raw intent read %d = ok=%v err=%v", i, ok, err)
		}
	}
	if e.Metrics().HotCacheHits == 0 {
		t.Fatal("repeat raw read did not hit the hot cache")
	}

	if err := ResolveIntent(e, k, 77, true, ts(9)); err != nil {
		t.Fatal(err)
	}
	// The provisional version was deleted; a stale cache would still serve it.
	if _, ok, err := e.Get(raw); err != nil || ok {
		t.Fatalf("resolved intent's raw key still visible: ok=%v err=%v (stale cache?)", ok, err)
	}
	// The committed version is visible at and after the commit timestamp.
	if v, ok, err := Get(e, k, ts(10), 0); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("committed read = %d bytes ok=%v err=%v", len(v), ok, err)
	}

	// Abort path: the intent vanishes and cached raw reads cannot resurrect it.
	if err := Put(e, k, ts(12), 88, []byte("provisional")); err != nil {
		t.Fatal(err)
	}
	rawAbort := EncodeKey(k, ts(12))
	e.Get(rawAbort)
	e.Get(rawAbort) // cached
	if err := ResolveIntent(e, k, 88, false, hlc.Timestamp{}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get(rawAbort); ok {
		t.Fatal("aborted intent's raw key still visible (stale cache?)")
	}
	if v, ok, err := Get(e, k, ts(20), 0); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("read after abort = %d bytes ok=%v err=%v", len(v), ok, err)
	}
}

// deepHistory writes versions committed versions of key at timestamps
// 10, 20, ..., and flushes halfway so the history spans a table and the
// memtable.
func deepHistory(tb testing.TB, e *lsm.Engine, key keys.Key, versions int) {
	tb.Helper()
	for i := 1; i <= versions; i++ {
		if err := ApplyPut(e, key, ts(int64(10*i)), 0, []byte(fmt.Sprintf("v%d", i))); err != nil {
			tb.Fatal(err)
		}
		if i == versions/2 {
			if err := e.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestGetCostIndependentOfHistory: a Get looks at the newest version and
// seeks to the read timestamp, so it allocates the same at 1, 100 and 10 000
// versions — reading the newest, or one in the middle of the history.
func TestGetCostIndependentOfHistory(t *testing.T) {
	var allocs []float64
	for _, versions := range []int{1, 100, 10000} {
		e := newEngine()
		k := keys.Key("district\x00\x00\x00\x07")
		deepHistory(t, e, k, versions)
		newest := ts(int64(10*versions) + 5)
		middle := ts(int64(10*((versions+1)/2)) + 5)
		for _, readTs := range []hlc.Timestamp{newest, middle} {
			want := fmt.Sprintf("v%d", readTs.WallTime/10)
			allocs = append(allocs, testing.AllocsPerRun(50, func() {
				v, ok, err := Get(e, k, readTs, 0)
				if err != nil || !ok || string(v) != want {
					t.Fatalf("%d versions: Get@%v = %q %v %v, want %q", versions, readTs, v, ok, err, want)
				}
			}))
		}
		e.Close()
	}
	for _, a := range allocs {
		if a != allocs[0] {
			t.Fatalf("Get allocations vary with history depth or read timestamp: %v", allocs)
		}
	}
}

// TestGetIntentAboveReadTimestamp: the seek to key@readTs must not hide what
// only the newest version can tell — a transaction's own intent is read even
// when it sits above the read timestamp, and a foreign intent at or below it
// is a conflict rather than the committed value underneath.
func TestGetIntentAboveReadTimestamp(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	deepHistory(t, e, k, 10) // committed at 10..100
	if err := Put(e, k, ts(200), 77, []byte("provisional")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := Get(e, k, ts(55), 77); err != nil || !ok || string(v) != "provisional" {
		t.Fatalf("own intent above readTs: Get = %q %v %v", v, ok, err)
	}
	// Another reader below the intent reads the history under it.
	if v, ok, err := Get(e, k, ts(55), 0); err != nil || !ok || string(v) != "v5" {
		t.Fatalf("foreign reader below the intent: Get = %q %v %v", v, ok, err)
	}
	var wie *kvpb.WriteIntentError
	for _, readTs := range []hlc.Timestamp{ts(200), ts(250)} {
		if _, _, err := Get(e, k, readTs, 0); !errors.As(err, &wie) || wie.TxnID != 77 {
			t.Fatalf("foreign intent at or below readTs %v: err = %v, want WriteIntentError", readTs, err)
		}
	}
}

// TestScanMatchesGet: over 12 keys of 60 versions each, tombstones among
// them, Scan — unpaged and in pages of 5, which resumes where the last page
// stopped — returns at every read timestamp exactly the rows Get returns key
// by key. Scan steps and seeks past old versions; Get looks at two positions.
func TestScanMatchesGet(t *testing.T) {
	e := newEngine()
	defer e.Close()
	const nKeys, nVersions = 12, 60
	var all []keys.Key
	for i := 0; i < nKeys; i++ {
		k := keys.Key(fmt.Sprintf("key-%02d\x00", i)) // an escaped byte in every key
		all = append(all, k)
		for v := 1; v <= nVersions; v++ {
			if i%4 == 3 && v <= 20 {
				continue // a key whose history starts late
			}
			at := ts(int64(10 * v))
			var err error
			if (v+i)%7 == 0 {
				err = ApplyDelete(e, k, at, 0)
			} else {
				err = ApplyPut(e, k, at, 0, []byte(fmt.Sprintf("k%d-v%d", i, v)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if i == nKeys/2 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	span := keys.Span{Key: keys.Key("key-"), EndKey: keys.Key("key-\xff")}
	for _, wall := range []int64{5, 10, 75, 205, 300, 455, 600, 1000} {
		readTs := ts(wall)
		var want []kvpb.KeyValue
		for _, k := range all {
			v, ok, err := Get(e, k, readTs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, kvpb.KeyValue{Key: k, Value: v})
			}
		}
		check := func(how string, got []kvpb.KeyValue) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("@%d %s: %d rows, Get finds %d", wall, how, len(got), len(want))
			}
			for i := range got {
				if !got[i].Key.Equal(want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("@%d %s: row %d = %q=%q, Get finds %q=%q",
						wall, how, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		}
		res, err := Scan(e, span, readTs, 0, 0)
		if err != nil || res.Resume != nil {
			t.Fatalf("@%d unpaged: err=%v resume=%v", wall, err, res.Resume)
		}
		check("unpaged", res.Rows)

		var paged []kvpb.KeyValue
		for next := &span; next != nil; {
			res, err := Scan(e, *next, readTs, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) > 5 || (res.Resume != nil && !res.Resume.EndKey.Equal(span.EndKey)) {
				t.Fatalf("@%d: page of %d rows, resume %v", wall, len(res.Rows), res.Resume)
			}
			paged = append(paged, res.Rows...)
			next = res.Resume
		}
		check("in pages of 5", paged)
	}
}

var benchSink []byte

// BenchmarkKVMVCCGetDeepHistory is the claim in-tree: a Get costs the same at
// any history depth (the eager iterator it replaced was 1 760x slower at
// 10 000 versions than at 1).
func BenchmarkKVMVCCGetDeepHistory(b *testing.B) {
	for _, versions := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			e := newEngine()
			defer e.Close()
			k := keys.Key("district\x00\x00\x00\x07")
			deepHistory(b, e, k, versions)
			readTs := ts(int64(10*versions) + 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, ok, err := Get(e, k, readTs, 0)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
				benchSink = v
			}
		})
	}
}
