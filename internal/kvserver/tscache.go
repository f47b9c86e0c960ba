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
// ones). The mark, like every entry, keeps the ID of the transaction whose
// read set it and pushes every transaction but that one (raise): a fold
// that raises the mark replaces its owner, and a read as new as the mark
// from another transaction leaves it ownerless. Every other folded read is
// then strictly below the mark, and the owner writes at or above its own
// read timestamp, so exempting the owner misses no push. It is not
// internally synchronized; the range latch serializes access.
type tsCache struct {
	lowWater tsCacheEntry
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

// raise folds read e into r: a newer read replaces r and its owner, and a
// read as new by another transaction leaves r ownerless, so that it pushes
// both transactions.
func (r *tsCacheEntry) raise(e tsCacheEntry) {
	switch {
	case r.ts.Less(e.ts):
		*r = e
	case e.ts == r.ts && e.txnID != r.txnID:
		r.txnID = 0
	}
}

// pushes reports whether e's read pushes a write of txnID: it does unless
// txnID made it, and a non-transactional write (txnID 0) is pushed by every
// read.
func (e tsCacheEntry) pushes(txnID uint64) bool { return txnID == 0 || e.txnID != txnID }

type spanEntry struct {
	span keys.Span
	tsCacheEntry
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
	tc.spans = append(tc.spans, spanEntry{span: span, tsCacheEntry: tsCacheEntry{ts: ts, txnID: txnID}})
}

// recordPoint raises key's entry to e. Only a new key is copied, into the
// map.
func (tc *tsCache) recordPoint(key keys.Key, e tsCacheEntry) {
	if i, ok := tc.points[string(key)]; ok {
		tc.entries[i].raise(e)
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
		tc.lowWater.raise(e)
	}
	tc.points = make(map[string]int)
	tc.entries = nil
}

// foldSpans collapses all span entries into the low-water mark.
func (tc *tsCache) foldSpans() {
	for _, e := range tc.spans {
		tc.lowWater.raise(e.tsCacheEntry)
	}
	tc.spans = tc.spans[:0]
}

// absorb carries another range's reads into this cache when a split or merge
// creates this range: other's low-water mark, folded into this one's, and
// every entry that covers a key of span. The result does not depend on
// other's map order; if it holds more entries than the cache keeps, they
// fold into the low-water mark.
func (tc *tsCache) absorb(other *tsCache, span keys.Span) {
	tc.lowWater.raise(other.lowWater)
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
		} else {
			tc.entries[j].raise(other.entries[i])
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
// any transaction other than txnID (the low-water mark covers every key).
func (tc *tsCache) maxReadOther(key keys.Key, txnID uint64) hlc.Timestamp {
	var max hlc.Timestamp
	if tc.lowWater.pushes(txnID) {
		max = tc.lowWater.ts
	}
	if i, ok := tc.points[string(key)]; ok {
		if e := tc.entries[i]; e.pushes(txnID) && max.Less(e.ts) {
			max = e.ts
		}
	}
	for _, e := range tc.spans {
		if e.span.ContainsKey(key) && e.pushes(txnID) && max.Less(e.ts) {
			max = e.ts
		}
	}
	return max
}
