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
	// Overflow the point capacity: evicted entries become the ownerless
	// low-water mark, a safe over-approximation.
	for i := 0; i <= tsCacheMaxPoints; i++ {
		k := keys.Key(fmt.Sprintf("k%06d", i))
		tc.recordRead(keys.Span{Key: k}, tcts(int64(i+1)), 5)
	}
	// A key evicted into the low-water mark still pushes — even the txn
	// that read it (ownership is lost in the fold).
	if got := tc.maxReadOther(keys.Key("unrelated"), 5); got.IsEmpty() {
		t.Fatal("low-water mark not applied")
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
