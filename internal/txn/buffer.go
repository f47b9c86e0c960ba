package txn

import (
	"bytes"
	"slices"
	"sort"
	"unsafe"

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

// minSlabBytes is the size of a transaction's first slab: a few rows' keys
// and values.
const minSlabBytes = 512

// keptWrites is the most writes whose storage — the index, the writes and
// the commit batch's requests — a writeBuffer keeps for the next
// transaction: enough that a short transaction allocates none of it, and few
// enough that one large transaction does not hold its storage for the rest
// of a connection's life.
const keptWrites = 64

// writeBuffer is a transaction's point writes, latest write per user key.
// Writes sit in first-write order with a map from key to position, so no
// output order ever depends on map iteration.
//
// The buffer holds copies of its keys and values, in slab: one transaction's
// writes cost an allocation per slab, not one per key and value. The index's
// keys are strings over the key bytes in the slab, which never change: a
// full slab is replaced, not overwritten, and reset drops it. The rows and
// values a read of the buffer returns point into the slab, so they stay
// valid after the transaction.
type writeBuffer struct {
	index  map[string]int
	writes []bufferedWrite
	bytes  int
	slab   []byte
	// reqs is the storage requests builds the commit batch in.
	reqs []kvpb.Request
}

func (b *writeBuffer) len() int { return len(b.writes) }

// hold copies p into the slab and returns the copy, whose capacity ends
// with it.
func (b *writeBuffer) hold(p []byte) []byte {
	if len(p) == 0 {
		return p[:0:0]
	}
	if cap(b.slab)-len(b.slab) < len(p) {
		b.slab = make([]byte, 0, max(2*cap(b.slab), len(p), minSlabBytes))
	}
	off := len(b.slab)
	b.slab = append(b.slab, p...)
	return b.slab[off:len(b.slab):len(b.slab)]
}

// add buffers a copy of w, replacing an earlier write to the same key. The
// caller may reuse w's key and value afterwards.
func (b *writeBuffer) add(w bufferedWrite) {
	w.value = b.hold(w.value)
	if i, ok := b.index[string(w.key)]; ok {
		b.bytes += len(w.value) - len(b.writes[i].value)
		w.key = b.writes[i].key
		b.writes[i] = w
		return
	}
	if b.index == nil {
		b.index = make(map[string]int)
	}
	w.key = b.hold(w.key)
	b.index[unsafe.String(unsafe.SliceData(w.key), len(w.key))] = len(b.writes)
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

// requests returns the buffer as Put/Delete requests in key order, in the
// buffer's own storage, valid until reset; nil when it is empty.
func (b *writeBuffer) requests() []kvpb.Request {
	if len(b.writes) == 0 {
		return nil
	}
	reqs := b.reqs[:0]
	for _, w := range b.writes {
		r := kvpb.Request{Method: kvpb.Put, Key: w.key, Value: w.value}
		if w.del {
			r.Method = kvpb.Delete
		}
		reqs = append(reqs, r)
	}
	slices.SortFunc(reqs, func(x, y kvpb.Request) int { return bytes.Compare(x.Key, y.Key) })
	b.reqs = reqs
	return reqs
}

// reset empties the buffer for the next transaction: it then refers to no
// key or value. It keeps the storage of the index, the writes and the
// requests, unless the transaction wrote more than keptWrites keys, and
// drops the slab, whose bytes the transaction's reads may have handed out.
func (b *writeBuffer) reset() {
	if len(b.writes) > keptWrites || len(b.reqs) > keptWrites {
		*b = writeBuffer{}
		return
	}
	clear(b.index)
	clear(b.writes)
	clear(b.reqs)
	*b = writeBuffer{index: b.index, writes: b.writes[:0], reqs: b.reqs[:0]}
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
