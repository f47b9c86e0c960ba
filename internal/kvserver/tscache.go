package kvserver

import (
	"slices"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
)

// tsCache is a per-range timestamp cache: it remembers the highest timestamp
// at which each key (or span) has been read, so that a later write below
// that timestamp is pushed — closing the lost-update anomaly where a
// transaction writes underneath another transaction's already-served read.
// This mirrors CockroachDB's timestamp cache; entries carry the reading
// transaction's ID so a transaction is never pushed by its own reads.
//
// The cache is bounded: evicted entries fold into a low-water mark, which is
// a safe over-approximation (it can cause spurious pushes, never missed
// ones). It is not internally synchronized; the range latch serializes
// access.
type tsCache struct {
	lowWater hlc.Timestamp
	// points indexes entries by key. A key read again updates its entry in
	// place: storing into a map under string(b) allocates the key even when
	// it is present, and looking it up does not.
	points  map[string]int
	entries []tsCacheEntry
	spans   []spanEntry
}

type tsCacheEntry struct {
	ts    hlc.Timestamp
	txnID uint64
}

type spanEntry struct {
	span  keys.Span
	ts    hlc.Timestamp
	txnID uint64
}

const (
	tsCacheMaxPoints = 4096
	tsCacheMaxSpans  = 64
)

func newTSCache() *tsCache {
	return &tsCache{points: make(map[string]int)}
}

// recordRead notes that span was read at ts by txnID.
func (tc *tsCache) recordRead(span keys.Span, ts hlc.Timestamp, txnID uint64) {
	if span.IsPoint() {
		tc.recordPoint(span.Key, tsCacheEntry{ts: ts, txnID: txnID})
		return
	}
	if len(tc.spans) >= tsCacheMaxSpans {
		tc.foldSpans()
	}
	tc.spans = append(tc.spans, spanEntry{span: span, ts: ts, txnID: txnID})
}

// recordPoint keeps e for key unless key's entry is at least as new. Only a
// new key is copied, into the map.
func (tc *tsCache) recordPoint(key keys.Key, e tsCacheEntry) {
	if i, ok := tc.points[string(key)]; ok {
		if tc.entries[i].ts.Less(e.ts) {
			tc.entries[i] = e
		}
		return
	}
	if len(tc.entries) >= tsCacheMaxPoints {
		tc.foldPoints()
	}
	tc.points[string(key)] = len(tc.entries)
	tc.entries = append(tc.entries, e)
}

// foldPoints collapses all point entries into the low-water mark.
func (tc *tsCache) foldPoints() {
	for _, e := range tc.entries {
		if tc.lowWater.Less(e.ts) {
			tc.lowWater = e.ts
		}
	}
	tc.points = make(map[string]int)
	tc.entries = nil
}

// foldSpans collapses all span entries into the low-water mark.
func (tc *tsCache) foldSpans() {
	for _, e := range tc.spans {
		if tc.lowWater.Less(e.ts) {
			tc.lowWater = e.ts
		}
	}
	tc.spans = tc.spans[:0]
}

// absorb carries another range's reads into this cache when a split or merge
// creates this range: other's low-water mark, if higher, and every entry that
// covers a key of span. The result does not depend on other's map order; if
// it holds more entries than the cache keeps, they fold into the low-water
// mark.
func (tc *tsCache) absorb(other *tsCache, span keys.Span) {
	if tc.lowWater.Less(other.lowWater) {
		tc.lowWater = other.lowWater
	}
	// New entries go in key order, so the entries' order does not depend on
	// other's map order.
	var in []string
	for k := range other.points {
		if span.ContainsKey(keys.Key(k)) {
			in = append(in, k)
		}
	}
	slices.Sort(in)
	for _, k := range in {
		i := other.points[k]
		if j, ok := tc.points[k]; !ok {
			tc.points[k] = len(tc.entries)
			tc.entries = append(tc.entries, other.entries[i])
		} else if e := other.entries[i]; tc.entries[j].ts.Less(e.ts) {
			tc.entries[j] = e
		}
	}
	if len(tc.entries) > tsCacheMaxPoints {
		tc.foldPoints()
	}
	for _, e := range other.spans {
		if e.span.Overlaps(span) {
			tc.spans = append(tc.spans, e)
		}
	}
	if len(tc.spans) > tsCacheMaxSpans {
		tc.foldSpans()
	}
}

// maxReadOther returns the highest recorded read timestamp covering key from
// any transaction other than txnID (the low-water mark is ownerless and
// always applies).
func (tc *tsCache) maxReadOther(key keys.Key, txnID uint64) hlc.Timestamp {
	max := tc.lowWater
	if i, ok := tc.points[string(key)]; ok {
		if e := tc.entries[i]; (txnID == 0 || e.txnID != txnID) && max.Less(e.ts) {
			max = e.ts
		}
	}
	for _, e := range tc.spans {
		if e.span.ContainsKey(key) && (txnID == 0 || e.txnID != txnID) && max.Less(e.ts) {
			max = e.ts
		}
	}
	return max
}
