package kvpb

import (
	"errors"
	"slices"
	"sync"

	"crdbserverless/internal/keys"
)

// Page is the memory one Scan response's rows live in: the row headers, and
// the slab their keys are decoded into. (Read rows' values alias engine
// memory, and the page holds only pointers to them; the rows a pushed-down
// aggregation builds are copied into the slab whole.)
//
// The KV node evaluating a scan draws a page from a pool (DrawPage) and fills
// it; the BatchResponse carrying the rows up owns the page, and so does every
// response its rows are merged or overlaid into. The one consumer that
// releases a response (BatchResponse.Release) hands its pages back exactly
// once, after which every row and key in them is invalid: what outlives the
// release must have been copied. A response nobody releases is left to the
// garbage collector, as an unpooled one would be.
//
// A pool rather than a buffer per session: sync.Pool empties across two
// garbage collections, so an idle page costs no live heap.
type Page struct {
	Rows []KeyValue
	// slab is the chunk keys (and built rows) are copied into; slabBytes
	// counts the bytes copied since the page was drawn, all chunks together.
	slab      []byte
	slabBytes int
	// next links the pages one response owns.
	next *Page
}

var pagePool sync.Pool

// DrawPage returns a pooled page for a scan to fill, or nil when the pool
// holds none: the scan then allocates as an unpooled one does, and pays
// nothing for a page nobody releases.
func DrawPage() *Page {
	p, _ := pagePool.Get().(*Page)
	return p
}

// Bounds of a key slab chunk. The first is small because many scans return a
// row or two; a page-sized first chunk would cost those scans more than the
// per-key allocations it replaces.
const (
	minSlabChunk = 64
	maxSlabChunk = 4 << 10
)

// AppendRow appends a row whose key is decoded from enc, a key as
// keys.EncodeBytes wrote it, into the page's slab, so a page of rows costs a
// handful of allocations rather than one per row. The key is cap-limited:
// appending to it copies it rather than overwriting the key after it.
func (p *Page) AppendRow(enc, value []byte) error {
	p.reserve(keys.DecodedBytesLen(enc))
	start := len(p.slab)
	rest, buf, err := keys.AppendDecodeBytes(p.slab, enc)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("kvpb: trailing bytes in encoded key")
	}
	p.slab = buf
	p.slabBytes += len(buf) - start
	p.appendKV(KeyValue{Key: buf[start:len(buf):len(buf)], Value: value})
	return nil
}

// AppendOwned appends a row the KV node built rather than read, such as a
// partial aggregate: no engine memory backs it, so its key and value are both
// copied into the page's slab, each cap-limited as AppendRow's key is.
func (p *Page) AppendOwned(key, value []byte) {
	p.reserve(len(key) + len(value))
	start := len(p.slab)
	p.slab = append(append(p.slab, key...), value...)
	p.slabBytes += len(key) + len(value)
	mid, end := start+len(key), len(p.slab)
	p.appendKV(KeyValue{Key: p.slab[start:mid:mid], Value: p.slab[mid:end:end]})
}

// reserve makes room for need more bytes in the slab. Chunks double from
// minSlabChunk to maxSlabChunk, and a new chunk has room for at least two
// rows like the one that opened it.
func (p *Page) reserve(need int) {
	if cap(p.slab)-len(p.slab) < need {
		size := min(max(2*cap(p.slab), minSlabChunk, 2*need), maxSlabChunk)
		p.slab = make([]byte, 0, max(size, need))
	}
}

func (p *Page) appendKV(kv KeyValue) {
	if len(p.Rows) == cap(p.Rows) {
		p.Rows = slices.Grow(p.Rows, len(p.Rows))
	}
	p.Rows = append(p.Rows, kv)
}

// release empties p and puts it back in the pool.
func (p *Page) release() {
	p.reset()
	pagePool.Put(p)
}

// reset empties p for its next fill, which reuses its row headers and one
// slab chunk that holds every byte of this fill: once a page has served a
// scan, a scan like it allocates nothing.
func (p *Page) reset() {
	clear(p.Rows)
	p.Rows = p.Rows[:0]
	if cap(p.slab) < p.slabBytes {
		p.slab = make([]byte, 0, p.slabBytes)
	}
	p.slab = p.slab[:0]
	p.slabBytes = 0
	p.next = nil
}

// KeepPage makes b the owner of p, a page its scan rows were read into. A
// nil p (the scan drew none) is ignored.
func (b *BatchResponse) KeepPage(p *Page) {
	if p != nil {
		p.next = b.pages
		b.pages = p
	}
}

// TakePages makes b the owner of from's pages, when from's responses are
// folded or merged into b's.
func (b *BatchResponse) TakePages(from *BatchResponse) {
	for p := from.pages; p != nil; {
		next := p.next
		b.KeepPage(p)
		p = next
	}
	from.pages = nil
}

// Release hands b's pages back to the pool, and drops b's scan rows: every
// row and key they held is invalid from here on. Only the consumer that owns
// b calls it, once. Releasing a response whose scans drew no page (the pool
// was empty) leaves an empty page in the pool for the next scan to fill.
func (b *BatchResponse) Release() {
	if b.pages == nil {
		pagePool.Put(new(Page))
	}
	for p := b.pages; p != nil; {
		next := p.next
		p.release()
		p = next
	}
	b.pages = nil
	for i := range b.Responses {
		b.Responses[i].Rows = nil
	}
}
