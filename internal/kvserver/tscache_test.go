package kvserver

import (
	"fmt"
	"testing"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
)

func tcts(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }

func TestTSCachePointReads(t *testing.T) {
	tc := newTSCache()
	k := keys.Key("k")
	if got := tc.maxReadOther(k, 0); !got.IsEmpty() {
		t.Fatalf("empty cache = %v", got)
	}
	tc.recordRead(keys.Span{Key: k}, tcts(10), 1)
	// Another txn's write below 10 sees the read.
	if got := tc.maxReadOther(k, 2); got != tcts(10) {
		t.Fatalf("maxReadOther = %v", got)
	}
	// The reading txn itself is not pushed by its own read.
	if got := tc.maxReadOther(k, 1); !got.IsEmpty() {
		t.Fatalf("own read pushed: %v", got)
	}
	// Higher reads replace lower ones; lower reads don't regress.
	tc.recordRead(keys.Span{Key: k}, tcts(20), 3)
	tc.recordRead(keys.Span{Key: k}, tcts(5), 4)
	if got := tc.maxReadOther(k, 0); got != tcts(20) {
		t.Fatalf("after overwrite = %v", got)
	}
	// A read as new by another txn makes the entry push both.
	tc.recordRead(keys.Span{Key: k}, tcts(20), 4)
	if got := tc.maxReadOther(k, 3); got != tcts(20) {
		t.Fatalf("after an equal read by another txn = %v", got)
	}
	// Other keys unaffected.
	if got := tc.maxReadOther(keys.Key("other"), 0); !got.IsEmpty() {
		t.Fatalf("other key = %v", got)
	}
}

func TestTSCacheSpanReads(t *testing.T) {
	tc := newTSCache()
	tc.recordRead(keys.Span{Key: keys.Key("b"), EndKey: keys.Key("m")}, tcts(7), 9)
	if got := tc.maxReadOther(keys.Key("c"), 1); got != tcts(7) {
		t.Fatalf("span covered key = %v", got)
	}
	if got := tc.maxReadOther(keys.Key("z"), 1); !got.IsEmpty() {
		t.Fatalf("outside span = %v", got)
	}
	// The scanning txn is not pushed by its own scan.
	if got := tc.maxReadOther(keys.Key("c"), 9); !got.IsEmpty() {
		t.Fatalf("own scan pushed: %v", got)
	}
}

func TestTSCacheFoldIntoLowWater(t *testing.T) {
	tc := newTSCache()
	// Overflow the point capacity: evicted entries fold into the low-water
	// mark, a safe over-approximation that keeps the txn of its newest read.
	for i := 0; i <= tsCacheMaxPoints; i++ {
		k := keys.Key(fmt.Sprintf("k%06d", i))
		tc.recordRead(keys.Span{Key: k}, tcts(int64(i+1)), 5)
	}
	mark := tcts(tsCacheMaxPoints)
	// A key evicted into the low-water mark still pushes every other txn,
	// on any key, but not the txn that read it.
	if got := tc.maxReadOther(keys.Key("unrelated"), 6); got != mark {
		t.Fatalf("low-water mark for another txn = %v, want %v", got, mark)
	}
	if got := tc.maxReadOther(keys.Key("k000001"), 5); !got.IsEmpty() {
		t.Fatalf("low-water mark pushes the txn whose read it is: %v", got)
	}
	// A read as new as the mark from another txn leaves it ownerless, so
	// it pushes both.
	other := newTSCache()
	other.lowWater = tsCacheEntry{ts: mark, txnID: 6}
	tc.absorb(other, keys.Span{Key: keys.Key("k"), EndKey: keys.Key("l")})
	for _, txnID := range []uint64{5, 6} {
		if got := tc.maxReadOther(keys.Key("unrelated"), txnID); got != mark {
			t.Fatalf("shared low-water mark for txn %d = %v, want %v", txnID, got, mark)
		}
	}
	// Span overflow folds too.
	tc2 := newTSCache()
	for i := 0; i <= tsCacheMaxSpans; i++ {
		tc2.recordRead(keys.Span{
			Key:    keys.Key(fmt.Sprintf("a%03d", i)),
			EndKey: keys.Key(fmt.Sprintf("a%03d\xff", i)),
		}, tcts(int64(i+1)), 5)
	}
	if got := tc2.maxReadOther(keys.Key("zzz"), 1); got.IsEmpty() {
		t.Fatal("span low-water mark not applied")
	}
}
