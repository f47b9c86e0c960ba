package mvcc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
)

// encodeKey is the storage key for (user key, timestamp).
func encodeKey(user keys.Key, ts hlc.Timestamp) []byte { return appendKey(nil, user, ts) }

func ts(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }

func newEngine() *lsm.Engine { return lsm.New(lsm.Options{}) }

func TestEncodeKeyNewestFirst(t *testing.T) {
	k := keys.Key("user")
	newer := encodeKey(k, ts(10))
	older := encodeKey(k, ts(5))
	if bytes.Compare(newer, older) >= 0 {
		t.Fatal("newer version must sort before older")
	}
	sameWall := encodeKey(k, hlc.Timestamp{WallTime: 10, Logical: 3})
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
		k, gotTs, err := DecodeKey(encodeKey(keys.Key(user), in))
		return err == nil && bytes.Equal(k, user) && gotTs == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, _, err := DecodeKey([]byte{0x99}); err == nil {
		t.Fatal("garbage key should error")
	}
	valid := encodeKey(keys.Key("k"), ts(1))
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
	if err := put(e, k, ts(10), 0, []byte("v10")); err != nil {
		t.Fatal(err)
	}
	if err := put(e, k, ts(20), 0, []byte("v20")); err != nil {
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
	put(e, k, ts(20), 0, []byte("v"))
	err := put(e, k, ts(10), 0, []byte("stale"))
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
	put(e, k, ts(10), 0, []byte("v"))
	if err := del(e, k, ts(20), 0); err != nil {
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
	put(e, k, ts(10), 0, []byte("committed"))
	if err := put(e, k, ts(20), 77, []byte("provisional")); err != nil {
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
	put(e, k, ts(10), 1, []byte("txn1"))
	err := put(e, k, ts(20), 2, []byte("txn2"))
	var wie *kvpb.WriteIntentError
	if !errors.As(err, &wie) || wie.TxnID != 1 {
		t.Fatalf("expected WriteIntentError{1}, got %v", err)
	}
}

func TestIntentRewriteBySameTxn(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	put(e, k, ts(10), 5, []byte("v1"))
	if err := put(e, k, ts(12), 5, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := Get(e, k, ts(12), 5)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("rewritten intent = %q %v %v", v, ok, err)
	}
	// Only one intent exists: committing yields exactly one version.
	if err := resolveIntent(e, k, 5, true, ts(12)); err != nil {
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
	if err := put(e, k, ts(10), 5, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := applyPut(e, k, ts(10), 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if iks, err := IntentKeys(e, keys.Span{Key: k}, 0); err != nil || len(iks) != 0 {
		t.Fatalf("intents after committed write = %v, %v", iks, err)
	}
	if v, ok, err := Get(e, k, ts(10), 0); err != nil || !ok || string(v) != "v" {
		t.Fatalf("foreign read = %q %v %v", v, ok, err)
	}
}

// TestCommittedVersionAt pins the exact-key lookup: only a committed version
// written at exactly the asked timestamp, of exactly the asked key, counts.
// Each case writes into a fresh engine.
func TestCommittedVersionAt(t *testing.T) {
	k := keys.Key("k")
	at := hlc.Timestamp{WallTime: 10, Logical: 1}
	big := string(bytes.Repeat([]byte("x"), 32))
	put := func(key keys.Key, ts hlc.Timestamp, txnID uint64, v string) func(*lsm.Engine) error {
		return func(e *lsm.Engine) error { return put(e, key, ts, txnID, []byte(v)) }
	}
	then := func(steps ...func(*lsm.Engine) error) func(*lsm.Engine) error {
		return func(e *lsm.Engine) error {
			for _, s := range steps {
				if err := s(e); err != nil {
					return err
				}
			}
			return nil
		}
	}
	resolve := func(commit bool, commitTs hlc.Timestamp) func(*lsm.Engine) error {
		return func(e *lsm.Engine) error { return resolveIntent(e, k, 7, commit, commitTs) }
	}
	for _, tc := range []struct {
		name      string
		write     func(*lsm.Engine) error
		key       keys.Key
		ts        hlc.Timestamp
		found     bool
		tombstone bool
		data      string
	}{
		{name: "put at ts", write: put(k, at, 0, "v"), key: k, ts: at, found: true, data: "v"},
		{name: "delete at ts", write: then(put(k, ts(5), 0, "old"), func(e *lsm.Engine) error { return del(e, k, at, 0) }),
			key: k, ts: at, found: true, tombstone: true},
		{name: "intent at ts", write: put(k, at, 7, big), key: k, ts: at},
		{name: "intent committed at ts", write: then(put(k, at, 7, big), resolve(true, at)), key: k, ts: at, found: true, data: big},
		{name: "intent committed above ts", write: then(put(k, at, 7, "v"), resolve(true, ts(12))), key: k, ts: at},
		{name: "intent committed above, read there", write: then(put(k, at, 7, "v"), resolve(true, ts(12))),
			key: k, ts: ts(12), found: true, data: "v"},
		{name: "intent aborted", write: then(put(k, at, 7, "v"), resolve(false, hlc.Timestamp{})), key: k, ts: at},
		{name: "just above ts", write: put(k, at, 0, "v"), key: k, ts: at.Next()},
		{name: "just below ts", write: put(k, at, 0, "v"), key: k, ts: hlc.Timestamp{WallTime: 10}},
		{name: "absent key", write: put(k, at, 0, "v"), key: keys.Key("j"), ts: at},
		// "k" is a byte prefix of "kk", and "kk"@at is the first storage key
		// after where "k"@at would sort: a lookup that accepted the first key
		// at or after its target would read the neighbour's version.
		{name: "prefix of its neighbour", write: put(keys.Key("kk"), at, 0, "v"), key: k, ts: at},
		{name: "neighbour of a prefix", write: put(k, at, 0, "v"), key: keys.Key("kk"), ts: at},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := lsm.New(lsm.Options{})
			defer e.Close()
			if err := tc.write(e); err != nil {
				t.Fatal(err)
			}
			v, ok, err := new(Lookup).CommittedVersionAt(e, tc.key, tc.ts)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.found || (ok && (v.Tombstone != tc.tombstone || string(v.Data) != tc.data || v.Ts != tc.ts || v.IsIntent())) {
				t.Fatalf("CommittedVersionAt(%q, %v) = %+v %v, want found=%v tombstone=%v data=%q",
					tc.key, tc.ts, v, ok, tc.found, tc.tombstone, tc.data)
			}
		})
	}
}

// TestAppendedEntries pins what a replica is handed: raw engine entries,
// written as -wall for a tombstone and +wall for a version, the replaced or
// resolved intent's tombstone first.
func TestAppendedEntries(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	check := func(name string, ents []lsm.Entry, err error, want string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, ent := range ents {
			_, at, err := DecodeKey(ent.Key)
			if err != nil {
				t.Fatal(err)
			}
			sign := "+"
			if ent.Tombstone {
				sign = "-"
			}
			got += fmt.Sprintf("%s%d ", sign, at.WallTime)
		}
		if got != want {
			t.Errorf("%s: entries %q, want %q", name, got, want)
		}
	}
	var l Lookup
	put := func(v Version) ([]lsm.Entry, error) {
		prior, err := l.CheckWriteConflict(e, k, v.Ts, v.TxnID)
		var b Entries
		b.Put(k, v, prior)
		return b.List, err
	}
	resolve := func(txnID uint64, commit bool, commitTs hlc.Timestamp) ([]lsm.Entry, error) {
		var b Entries
		err := b.Resolve(&l, e, k, txnID, commit, commitTs)
		return b.List, err
	}
	ents, err := put(Version{Ts: ts(5), Data: []byte("v")})
	check("committed put", ents, err, "+5 ")
	ents, err = resolve(9, true, ts(12))
	check("resolve with no intent", ents, err, "")
	if err := applyPut(e, k, ts(10), 9, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ents, err = put(Version{Ts: ts(11), TxnID: 9, Data: []byte("v2")})
	check("intent over its own intent", ents, err, "-10 +11 ")
	ents, err = resolve(8, true, ts(12))
	check("another transaction's resolve", ents, err, "")
	ents, err = resolve(9, true, ts(12))
	check("commit", ents, err, "-10 +12 ")
	ents, err = resolve(9, false, hlc.Timestamp{})
	check("abort", ents, err, "-10 ")
}

func TestResolveIntentCommit(t *testing.T) {
	e := newEngine()
	defer e.Close()
	k := keys.Key("k")
	put(e, k, ts(10), 9, []byte("v"))
	if err := resolveIntent(e, k, 9, true, ts(12)); err != nil {
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
	put(e, k, ts(5), 0, []byte("old"))
	put(e, k, ts(10), 9, []byte("aborted"))
	if err := resolveIntent(e, k, 9, false, hlc.Timestamp{}); err != nil {
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
	put(e, k, ts(10), 9, []byte("v"))
	resolveIntent(e, k, 9, true, ts(10))
	// Second resolution is a no-op, not an error, and must not disturb the
	// committed version.
	if err := resolveIntent(e, k, 9, true, ts(10)); err != nil {
		t.Fatal(err)
	}
	// Resolving a different txn's id is also a no-op.
	if err := resolveIntent(e, k, 42, false, hlc.Timestamp{}); err != nil {
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
		put(e, keys.Key(fmt.Sprintf("k%d", i)), ts(10), 0, []byte(fmt.Sprintf("v%d", i)))
	}
	del(e, keys.Key("k2"), ts(20), 0)
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
	put(e, keys.Key("a"), ts(10), 0, []byte("a10"))
	put(e, keys.Key("a"), ts(30), 0, []byte("a30"))
	put(e, keys.Key("b"), ts(20), 0, []byte("b20"))
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
		put(e, keys.Key(fmt.Sprintf("k%d", i)), ts(10), 0, []byte("v"))
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
	put(e, keys.Key("a"), ts(10), 0, []byte("v"))
	put(e, keys.Key("b"), ts(10), 3, []byte("intent"))
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
	put(e, keys.Key("a"), ts(10), 0, []byte("v"))
	put(e, keys.Key("a2"), ts(10), 0, []byte("x"))
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
		put(e, k, ts(i*10), 0, []byte(fmt.Sprintf("v%d", i)))
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
	put(e, k, ts(10), 0, []byte("old"))
	put(e, k, ts(20), 0, []byte("mid"))
	put(e, k, ts(30), 7, []byte("intent"))
	// keepAfter=15: version@20 is recent and the intent always survives.
	// version@10 is the newest committed version at or below 15, which a
	// read at 15 to 19 returns, so it survives too: nothing is removed.
	n, err := GCOldVersions(e, keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}, ts(15))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("gc removed %d, want 0", n)
	}
	if v, ok, err := Get(e, k, ts(30), 7); err != nil || !ok || string(v) != "intent" {
		t.Fatalf("intent lost: %q %v %v", v, ok, err)
	}
	if v, ok, _ := Get(e, k, ts(25), 0); !ok || string(v) != "mid" {
		t.Fatalf("recent version lost: %q %v", v, ok)
	}
	if v, ok, _ := Get(e, k, ts(17), 0); !ok || string(v) != "old" {
		t.Fatalf("read at 17, above the GC threshold, = %q %v; want \"old\"", v, ok)
	}
}

// TestGCPropertyKeepsReadsAboveThreshold: GC at keepAfter changes no read
// at or above keepAfter. Each history mixes committed puts and deletes with
// intents, some committed and some aborted, at increasing timestamps, and
// the threshold falls anywhere in it.
func TestGCPropertyKeepsReadsAboveThreshold(t *testing.T) {
	type op struct {
		KeyIdx uint8
		Kind   uint8 // put, delete, intent, commit the key's intent, abort it
		Val    uint16
	}
	const nkeys = 4
	span := keys.Span{Key: keys.Key("a"), EndKey: keys.Key("z")}
	removed := 0
	f := func(ops []op, threshold uint8) bool {
		e := newEngine()
		defer e.Close()
		for i, o := range ops {
			k := keys.Key(fmt.Sprintf("k%d", o.KeyIdx%nkeys))
			txn := uint64(o.KeyIdx%nkeys) + 1 // one writer per key
			at := ts(int64(i + 1))
			// A write into another transaction's intent, or a resolve with
			// no intent to resolve, fails and leaves the history as it is.
			switch o.Kind % 5 {
			case 0:
				_ = put(e, k, at, 0, []byte(fmt.Sprintf("v%d", o.Val)))
			case 1:
				_ = del(e, k, at, 0)
			case 2:
				_ = put(e, k, at, txn, []byte(fmt.Sprintf("i%d", o.Val)))
			case 3:
				_ = resolveIntent(e, k, txn, true, at)
			case 4:
				_ = resolveIntent(e, k, txn, false, hlc.Timestamp{})
			}
		}
		end := int64(len(ops) + 1)
		keepAfter := int64(threshold) % (end + 1)
		reads := func() []string {
			var out []string
			for i := 0; i < nkeys; i++ {
				k := keys.Key(fmt.Sprintf("k%d", i))
				for r := keepAfter; r <= end; r++ {
					v, ok, err := Get(e, k, ts(r), 0)
					out = append(out, fmt.Sprintf("%s@%d: %q %v %v", k, r, v, ok, err != nil))
				}
			}
			return out
		}
		before := reads()
		n, err := GCOldVersions(e, span, ts(keepAfter))
		if err != nil {
			return false
		}
		removed += n
		after := reads()
		for i := range before {
			if before[i] != after[i] {
				t.Logf("GC at %d changed a read: %s, then %s", keepAfter, before[i], after[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("no history gave GC anything to remove")
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
			if err := put(e, keys.Key(k), ts(wts), 0, []byte(v)); err != nil {
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

// Intent resolution reaches the engine as ordinary Delete+Set batches: a raw
// read of the intent's storage key after resolution must not find it, and
// the committed version must be immediately visible at the MVCC level. The
// engine keeps no read cache, so every read walks the memtable and tables.
func TestResolveIntentInvalidatesHotCache(t *testing.T) {
	e := lsm.New(lsm.Options{})
	defer e.Close()
	k := keys.Key("acct")
	val := bytes.Repeat([]byte("x"), 32)
	rawValue := func(raw []byte) ([]byte, bool) {
		it := e.NewIter(raw, append(append([]byte(nil), raw...), 0))
		it.SeekGE(raw)
		if !it.Valid() || !bytes.Equal(it.Key(), raw) {
			return nil, false
		}
		return append([]byte(nil), it.Value()...), true
	}

	if err := put(e, k, ts(5), 77, val); err != nil {
		t.Fatal(err)
	}
	raw := encodeKey(k, ts(5))
	for i := 0; i < 2; i++ {
		if v, ok := rawValue(raw); !ok || len(v) == 0 {
			t.Fatalf("raw intent read %d = ok=%v", i, ok)
		}
	}

	if err := resolveIntent(e, k, 77, true, ts(9)); err != nil {
		t.Fatal(err)
	}
	// The provisional version was deleted.
	if _, ok := rawValue(raw); ok {
		t.Fatal("resolved intent's raw key still visible")
	}
	// The committed version is visible at and after the commit timestamp.
	if v, ok, err := Get(e, k, ts(10), 0); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("committed read = %d bytes ok=%v err=%v", len(v), ok, err)
	}

	// Abort path: the intent vanishes and earlier raw reads cannot resurrect it.
	if err := put(e, k, ts(12), 88, []byte("provisional")); err != nil {
		t.Fatal(err)
	}
	rawAbort := encodeKey(k, ts(12))
	rawValue(rawAbort)
	rawValue(rawAbort)
	if err := resolveIntent(e, k, 88, false, hlc.Timestamp{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := rawValue(rawAbort); ok {
		t.Fatal("aborted intent's raw key still visible")
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
		if err := applyPut(e, key, ts(int64(10*i)), 0, []byte(fmt.Sprintf("v%d", i))); err != nil {
			tb.Fatal(err)
		}
		if i == versions/2 {
			if err := e.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// A leaseholder evaluates a batch's lookups one at a time in one Lookup.
// Once the Lookup has done one, a Get and a CheckWriteConflict allocate
// nothing, at 1, 100 and 10 000 versions, with part of the history in a
// table: the iterator and the version bounds are the Lookup's. A free Get
// allocates the Lookup itself and its bounds.
func TestLookupAllocatesNothing(t *testing.T) {
	for _, versions := range []int{1, 100, 10000} {
		e := newEngine()
		k := keys.Key("district\x00\x00\x00\x07")
		deepHistory(t, e, k, versions)
		var l Lookup
		middle := ts(int64(10*((versions+1)/2)) + 5)
		want := fmt.Sprintf("v%d", middle.WallTime/10)
		get := func() {
			v, ok, err := l.Get(e, k, middle, 0)
			if err != nil || !ok || string(v) != want {
				t.Fatalf("%d versions: Get@%v = %q %v %v, want %q", versions, middle, v, ok, err, want)
			}
		}
		check := func() {
			if prior, err := l.CheckWriteConflict(e, k, ts(int64(10*versions)+20), 9); err != nil || prior.IsIntent() {
				t.Fatalf("%d versions: CheckWriteConflict = %v, %v", versions, prior, err)
			}
		}
		get()
		if n := testing.AllocsPerRun(50, get); n != 0 {
			t.Fatalf("%d versions: Get in a used Lookup makes %v allocations, want 0", versions, n)
		}
		if n := testing.AllocsPerRun(50, check); n != 0 {
			t.Fatalf("%d versions: CheckWriteConflict in a used Lookup makes %v allocations, want 0", versions, n)
		}
		if n := testing.AllocsPerRun(50, func() { _, _, _ = Get(e, k, middle, 0) }); n != 2 {
			t.Fatalf("%d versions: free Get makes %v allocations, want 2", versions, n)
		}
		l.Release()
		e.Close()
	}
}

// A Lookup that has made one Get allocates nothing for the next when the
// key sits in an L1 table, behind other keys of its block: the table source
// rebuilds each key that shares a prefix with the one before in its key
// buffer, which the Lookup keeps across lookups and Release.
func TestLookupGetFromTableAllocatesNothing(t *testing.T) {
	e := newEngine()
	defer e.Close()
	key := func(i int) keys.Key { return keys.Key(fmt.Sprintf("usertable\x00\x00\x00%05d", i)) }
	for f := 0; f < 4; f++ { // the fourth flush compacts L0 into L1
		for i := 100 * f; i < 100*(f+1); i++ {
			if err := applyPut(e, key(i), ts(10), 0, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Metrics(); m.L0Files != 0 || m.LevelBytes[1] == 0 || m.MemTableBytes != 0 {
		t.Fatalf("engine %v: want every key in L1", m)
	}
	var l Lookup
	k := key(257)
	get := func() {
		v, ok, err := l.Get(e, k, ts(20), 0)
		if err != nil || !ok || string(v) != "v257" {
			t.Fatalf("Get = %q %v %v, want v257", v, ok, err)
		}
		l.Release()
	}
	get()
	if n := testing.AllocsPerRun(100, get); n != 0 {
		t.Fatalf("Get from an L1 table in a used Lookup makes %v allocations, want 0", n)
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
	if err := put(e, k, ts(200), 77, []byte("provisional")); err != nil {
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
				err = applyDelete(e, k, at, 0)
			} else {
				err = applyPut(e, k, at, 0, []byte(fmt.Sprintf("k%d-v%d", i, v)))
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

// sqlKey is a primary-index key shaped like the SQL layer's: tenant, table
// and index prefixes, then an INT datum. Its big-endian integers are mostly
// zero bytes, each escaped in the storage key.
func sqlKey(i int64) keys.Key {
	return keys.EncodeInt64(append(keys.MakeTableIndexPrefix(2, 53, keys.PrimaryIndexID), 0x02), i)
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestScanKeysAreIndependent: Scan decodes the user keys it returns into a
// shared slab. Each is still its storage key's user key, each is its own
// slice — an append to one cannot reach the next — and a scan of two rows
// costs no more bytes than one allocation per key did.
func TestScanKeysAreIndependent(t *testing.T) {
	e := newEngine()
	defer e.Close()
	span := keys.Span{Key: sqlKey(0), EndKey: sqlKey(1 << 20)}
	// Enough keys to fill several chunks, one longer than a whole chunk.
	long := append(sqlKey(500), bytes.Repeat([]byte{0, 7}, 3000)...)
	for i := int64(1); i <= 400; i++ {
		if err := put(e, sqlKey(i), ts(10), 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := put(e, long, ts(10), 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	var want []keys.Key
	it := e.NewIter(EngineSpan(span))
	for ; it.Valid(); it.Next() {
		user, _, err := DecodeKey(it.Key())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, user)
	}
	res, err := Scan(e, span, ts(20), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("scan returned %d rows, the engine holds %d keys", len(res.Rows), len(want))
	}
	for i, kv := range res.Rows {
		if !kv.Key.Equal(want[i]) {
			t.Fatalf("row %d key %x, its storage key decodes to %x", i, kv.Key, want[i])
		}
	}
	for i := 0; i+1 < len(res.Rows); i++ {
		next := res.Rows[i+1].Key.Clone()
		grown := append(res.Rows[i].Key, 0xee, 0xee, 0xee)
		if !res.Rows[i+1].Key.Equal(next) || !grown[:len(grown)-3].Equal(want[i]) {
			t.Fatalf("appending to key %d changed key %d: %x, was %x", i, i+1, res.Rows[i+1].Key, next)
		}
	}

	// A two-row scan cost this many bytes with one allocation per key (the
	// slab's first chunk holds both keys in 80 B, where the two keys took
	// 128 B).
	const twoRowScanBytesBefore = 784
	two := keys.Span{Key: sqlKey(1), EndKey: sqlKey(3)}
	got := allocBytesPerRun(200, func() {
		if res, err := Scan(e, two, ts(20), 0, 0); err != nil || len(res.Rows) != 2 {
			t.Fatalf("two-row scan = %d rows, %v", len(res.Rows), err)
		}
	})
	t.Logf("two-row scan: %d B", got)
	if got > twoRowScanBytesBefore {
		t.Errorf("two-row scan allocates %d B, want at most %d", got, twoRowScanBytesBefore)
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

// put is the leaseholder's write: the conflict check, then the version.
func put(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64, value []byte) error {
	if _, err := new(Lookup).CheckWriteConflict(e, key, ts, txnID); err != nil {
		return err
	}
	return applyPut(e, key, ts, txnID, value)
}

// del is put's tombstone.
func del(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64) error {
	if _, err := new(Lookup).CheckWriteConflict(e, key, ts, txnID); err != nil {
		return err
	}
	return applyDelete(e, key, ts, txnID)
}

// applyPut writes a version as a replica applies a command: Entries.Put's
// entries in one engine batch, with no conflict check.
func applyPut(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64, value []byte) error {
	return applyVersion(e, key, Version{Ts: ts, TxnID: txnID, Data: value})
}

// applyDelete is applyPut's tombstone.
func applyDelete(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64) error {
	return applyVersion(e, key, Version{Ts: ts, TxnID: txnID, Tombstone: true})
}

// applyVersion writes v as applyPut does. The intent it replaces is the one
// CheckWriteConflict finds; a conflict it reports comes with no intent to
// replace, and applying goes ahead.
func applyVersion(e *lsm.Engine, key keys.Key, v Version) error {
	prior, _ := new(Lookup).CheckWriteConflict(e, key, v.Ts, v.TxnID)
	var b Entries
	b.Put(key, v, prior)
	return e.ApplyBatch(b.List)
}

// resolveIntent applies Entries.Resolve's entries in one engine batch.
func resolveIntent(e *lsm.Engine, key keys.Key, txnID uint64, commit bool, commitTs hlc.Timestamp) error {
	var b Entries
	if err := b.Resolve(new(Lookup), e, key, txnID, commit, commitTs); err != nil {
		return err
	}
	return e.ApplyBatch(b.List)
}
