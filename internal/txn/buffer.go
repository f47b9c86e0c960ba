package txn

import (
	"sort"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
)

// maxBufferBytes caps the keys and values a transaction holds back. A
// transaction that writes more stops buffering: what it holds goes out as
// one intent batch and the rest of its writes go straight to KV (Txn.flush).
const maxBufferBytes = 4 << 20

// bufferedWrite is one point write held back until commit.
type bufferedWrite struct {
	key   keys.Key
	value []byte
	del   bool
}

// writeBuffer is a transaction's point writes, latest write per user key.
// Writes sit in first-write order with a map from key to position, so no
// output order ever depends on map iteration.
type writeBuffer struct {
	index  map[string]int
	writes []bufferedWrite
	bytes  int
}

func (b *writeBuffer) len() int { return len(b.writes) }

// add buffers w, replacing an earlier write to the same key.
func (b *writeBuffer) add(w bufferedWrite) {
	if i, ok := b.index[string(w.key)]; ok {
		b.bytes += len(w.value) - len(b.writes[i].value)
		b.writes[i] = w
		return
	}
	if b.index == nil {
		b.index = make(map[string]int)
	}
	b.index[string(w.key)] = len(b.writes)
	b.writes = append(b.writes, w)
	b.bytes += len(w.key) + len(w.value)
}

// get returns the buffered write to key, if any.
func (b *writeBuffer) get(key keys.Key) (bufferedWrite, bool) {
	i, ok := b.index[string(key)]
	if !ok {
		return bufferedWrite{}, false
	}
	return b.writes[i], true
}

// requests returns the buffer as Put/Delete requests in key order; nil when
// it is empty.
func (b *writeBuffer) requests() []kvpb.Request {
	if len(b.writes) == 0 {
		return nil
	}
	reqs := make([]kvpb.Request, len(b.writes))
	for i, w := range b.writes {
		reqs[i] = kvpb.Request{Method: kvpb.Put, Key: w.key, Value: w.value}
		if w.del {
			reqs[i].Method = kvpb.Delete
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Key.Less(reqs[j].Key) })
	return reqs
}

// overlay lays the buffer over one page of a Scan, so the transaction reads
// its own writes: inside the part of the span the page covered — up to the
// resume key, if there is one — a buffered put replaces or inserts its row
// and a buffered delete removes it. Buffered rows are not run through the
// scan's pushed-down filter; like an undecodable row they are returned
// (the KV side's filter fails open the same way, and the SQL layer applies
// the whole predicate again). The SQL layer pushes no aggregation down
// through a transaction with buffered writes in the span (BuffersWritesIn):
// the buffer can be laid over rows, not over partial aggregates. A page the inserts push past MaxKeys is cut back
// to it, resuming at the first row cut. The rows still point into the
// response's pages, and the resume key is a copy: it outlives them.
func (b *writeBuffer) overlay(r kvpb.Request, page *kvpb.Response) {
	covered := keys.Span{Key: r.Key, EndKey: r.EndKey}
	if page.ResumeSpan != nil {
		covered.EndKey = page.ResumeSpan.Key
	}
	var in []bufferedWrite
	for _, w := range b.writes {
		if covered.ContainsKey(w.key) {
			in = append(in, w)
		}
	}
	if len(in) == 0 {
		return
	}
	sort.Slice(in, func(i, j int) bool { return in[i].key.Less(in[j].key) })
	stored := page.Rows
	rows := make([]kvpb.KeyValue, 0, len(stored)+len(in))
	for len(stored) > 0 || len(in) > 0 {
		if len(in) == 0 || (len(stored) > 0 && stored[0].Key.Less(in[0].key)) {
			rows = append(rows, stored[0])
			stored = stored[1:]
			continue
		}
		if len(stored) > 0 && stored[0].Key.Equal(in[0].key) {
			stored = stored[1:]
		}
		if !in[0].del {
			rows = append(rows, kvpb.KeyValue{Key: in[0].key, Value: in[0].value})
		}
		in = in[1:]
	}
	if r.MaxKeys > 0 && int64(len(rows)) > r.MaxKeys {
		page.ResumeSpan = &keys.Span{Key: rows[r.MaxKeys].Key.Clone(), EndKey: r.EndKey}
		rows = rows[:r.MaxKeys]
	}
	page.Rows = rows
}
