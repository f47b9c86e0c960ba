package kvpb

import (
	"errors"
	"slices"
	"sync"

	"crdbserverless/internal/keys"
)

// Page is the memory one Scan response's rows live in: the row headers, and
// the slab their keys are decoded into. (Row values alias engine memory; the
// page holds only pointers to them.)
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
	// slab is the chunk keys are decoded into; keyBytes counts the key
	// bytes decoded since the page was drawn, all chunks together.
	slab     []byte
	keyBytes int
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
// handful of allocations rather than one per row. Chunks double from
// minSlabChunk to maxSlabChunk, and a new chunk has room for at least two
// keys like the one that opened it. The key is cap-limited: appending to it
// copies it rather than overwriting the key after it.
func (p *Page) AppendRow(enc, value []byte) error {
	if need := keys.DecodedBytesLen(enc); cap(p.slab)-len(p.slab) < need {
		size := min(max(2*cap(p.slab), minSlabChunk, 2*need), maxSlabChunk)
		p.slab = make([]byte, 0, max(size, need))
	}
	start := len(p.slab)
	rest, buf, err := keys.AppendDecodeBytes(p.slab, enc)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("kvpb: trailing bytes in encoded key")
	}
	p.slab = buf
	p.keyBytes += len(buf) - start
	if len(p.Rows) == cap(p.Rows) {
		p.Rows = slices.Grow(p.Rows, len(p.Rows))
	}
	p.Rows = append(p.Rows, KeyValue{Key: buf[start:len(buf):len(buf)], Value: value})
	return nil
}

// release empties p and puts it back in the pool.
func (p *Page) release() {
	p.reset()
	pagePool.Put(p)
}

// reset empties p for its next fill, which reuses its row headers and one
// slab chunk that holds every key of this fill: once a page has served a
// scan, a scan like it allocates nothing.
func (p *Page) reset() {
	clear(p.Rows)
	p.Rows = p.Rows[:0]
	if cap(p.slab) < p.keyBytes {
		p.slab = make([]byte, 0, p.keyBytes)
	}
	p.slab = p.slab[:0]
	p.keyBytes = 0
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
